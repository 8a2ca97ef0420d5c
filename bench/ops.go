package main

// Fixed settings. They are constants, not flags, so that every run on
// every host measures the same workload; the report records them.
const (
	engineSpec = "tl2" // the paper's case-study TM and kvserver's default
	workers    = 2     // worker goroutines / keep-alive connections
	keyspace   = 32768 // keys 1..keyspace
	kvShards   = 16
	kvSlots    = 4096 // the largest table one stmalloc buddy block allows
	scanPage   = 256  // ScanPage limit in store-scan-churn
	rangeSpan  = keyspace / 8

	// sampleEvery is the in-process latency sampling period: two
	// time.Now calls are ~15 % of a 0.3 µs operation, so one operation
	// in 16 is timed. Every HTTP request is timed.
	sampleEvery = 16
)

// valueOf is the value every key maps to, so any pair read anywhere can
// be checked without knowing who wrote it.
func valueOf(key int64) int64 { return key*31 + 7 }

// neverWritten reports whether key is one the writers leave alone: keys
// ≡ 0 (mod 8) are prefilled and stay present, which gives the scan
// checks a set that every complete walk must contain.
func neverWritten(key int64) bool { return key&7 == 0 }

// prefilled reports whether set-up inserts key.
func prefilled(key int64) bool { return key&1 == 1 || neverWritten(key) }

// splitmix64 is the per-worker generator: one draw per operation gives
// both key and kind (math/rand's two draws cost ~10 % of a 0.3 µs op).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
)

func (k opKind) String() string {
	return [...]string{"get", "put", "delete"}[k]
}

// mix is a GET/PUT/DELETE split in percent; the rest after gets and
// puts are deletes.
type mix struct{ get, put uint64 }

var (
	mixPoint  = mix{95, 4}  // GET 95 / PUT 4 / DELETE 1
	mixBeside = mix{50, 25} // GET 50 / PUT 25 / DELETE 25, beside a scanner
	mixChurn  = mix{20, 40} // GET 20 / PUT 40 / DELETE 40
)

// Residues (key mod 8) a writer may write. Two writers split the
// writable keys by parity, so no key has two writers and each writer's
// presence bitmap is exact; a lone writer takes all seven.
var (
	residuesEven = []int64{2, 4, 6}
	residuesOdd  = []int64{1, 3, 5, 7}
	residuesAll  = []int64{1, 2, 3, 4, 5, 6, 7}
)

// draw turns one 64-bit draw into an operation. Reads go anywhere in
// 1..keyspace; writes land on one of the writer's residues.
func (m mix) draw(x uint64, residues []int64) (opKind, int64) {
	// Key, kind and residue come from disjoint bit ranges of the draw.
	k0 := int64(x & (keyspace - 1))
	kind := (x >> 16 & 0xffff) * 100 >> 16
	switch {
	case kind < m.get:
		return opGet, k0 + 1
	case kind < m.get+m.put:
		return opPut, k0&^7 | residues[(x>>48)%uint64(len(residues))]
	default:
		return opDelete, k0&^7 | residues[(x>>48)%uint64(len(residues))]
	}
}

// bitmap is one writer's record of which of its own keys are present:
// the oracle every read and the post-slice contents check compare with.
type bitmap []uint64

func newBitmap() bitmap { return make(bitmap, keyspace/64+1) }

func (b bitmap) has(key int64) bool { return b[key>>6]&(1<<(uint(key)&63)) != 0 }
func (b bitmap) set(key int64)      { b[key>>6] |= 1 << (uint(key) & 63) }
func (b bitmap) clear(key int64)    { b[key>>6] &^= 1 << (uint(key) & 63) }

// backend is the layer a point-op worker drives. The adapters in
// workloads.go put the stores and the HTTP connection behind it, so all
// five workloads share one measured loop and one oracle.
type backend interface {
	get(key int64) (val int64, ok bool, err error)
	put(key, val int64) error
	del(key int64) (removed bool, err error)
}
