package main

import (
	"strings"
	"testing"

	"safepriv/internal/workload"
)

// TestDSFlagVocabulary pins the -ds flag vocabulary: every accepted
// value must resolve to a registered workload (so the shorthand cannot
// rot when workloads are renamed), every rejection must speak in flag
// terms, and -ds alongside an explicit -workload is a conflict, not a
// silent override.
func TestDSFlagVocabulary(t *testing.T) {
	cases := []struct {
		name         string
		ds, workload string
		wantName     string
		wantImpl     string
		wantErr      string // substring; "" = accepted
	}{
		{name: "empty passes through"},
		{name: "set", ds: "set", wantName: "set-churn"},
		{name: "queue", ds: "queue", wantName: "queue-pipe"},
		{name: "map", ds: "map", wantName: "map-churn", wantImpl: "map"},
		{name: "skip", ds: "skip", wantName: "map-churn", wantImpl: "skip"},
		{name: "hash", ds: "hash", wantName: "map-churn", wantImpl: "hash"},
		{name: "unknown value", ds: "btree", wantErr: "-ds \"btree\""},
		{name: "typo of skip", ds: "skiplist", wantErr: "want set, queue, map, skip or hash"},
		{name: "typo of hash", ds: "hashmap", wantErr: "want set, queue, map, skip or hash"},
		{name: "ds vs workload", ds: "skip", workload: "kvstore", wantErr: "-ds skip conflicts with -workload kvstore"},
		{name: "ds with workload list is fine", ds: "map", workload: "list", wantName: "map-churn", wantImpl: "map"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := dsFlagConflict(tc.ds, tc.workload)
			if err == nil {
				var name, impl string
				name, impl, err = dsWorkload(tc.ds)
				if err == nil {
					if name != tc.wantName || impl != tc.wantImpl {
						t.Fatalf("dsWorkload(%q) = (%q, %q), want (%q, %q)",
							tc.ds, name, impl, tc.wantName, tc.wantImpl)
					}
					if name != "" {
						if _, ok := workload.ByName(name); !ok {
							t.Fatalf("-ds %s resolves to unregistered workload %q", tc.ds, name)
						}
					}
				}
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not say %q", err, tc.wantErr)
			}
		})
	}
}
