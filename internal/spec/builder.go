package spec

// Builder constructs histories action by action, assigning fresh action
// identifiers. It is the standard way tests and litmus encodings write
// down the paper's example histories.
type Builder struct {
	h    History
	next ActionID
}

// NewBuilder returns an empty history builder.
func NewBuilder() *Builder { return &Builder{} }

// History returns the built history.
func (b *Builder) History() History { return b.h }

// add appends a single raw action with a fresh identifier.
func (b *Builder) add(t ThreadID, k Kind, x Reg, v Value) *Builder {
	b.next++
	b.h = append(b.h, Action{ID: b.next, Thread: t, Kind: k, Reg: x, Value: v})
	return b
}

// TxBegin appends a txbegin request by t.
func (b *Builder) TxBegin(t ThreadID) *Builder { return b.add(t, KindTxBegin, 0, 0) }

// ok appends an ok response by t.
func (b *Builder) ok(t ThreadID) *Builder { return b.add(t, KindOK, 0, 0) }

// TxBeginOK appends txbegin immediately followed by ok.
func (b *Builder) TxBeginOK(t ThreadID) *Builder { return b.TxBegin(t).ok(t) }

// TxCommit appends a txcommit request by t.
func (b *Builder) TxCommit(t ThreadID) *Builder { return b.add(t, KindTxCommit, 0, 0) }

// Committed appends a committed response by t.
func (b *Builder) Committed(t ThreadID) *Builder { return b.add(t, KindCommitted, 0, 0) }

// Aborted appends an aborted response by t.
func (b *Builder) Aborted(t ThreadID) *Builder { return b.add(t, KindAborted, 0, 0) }

// Commit appends txcommit immediately followed by committed.
func (b *Builder) Commit(t ThreadID) *Builder { return b.TxCommit(t).Committed(t) }

// Read appends a read(x) request by t.
func (b *Builder) Read(t ThreadID, x Reg) *Builder { return b.add(t, KindRead, x, 0) }

// ret appends a ret(v) response by t.
func (b *Builder) ret(t ThreadID, v Value) *Builder { return b.add(t, KindRet, 0, v) }

// ReadRet appends a complete read of x returning v.
func (b *Builder) ReadRet(t ThreadID, x Reg, v Value) *Builder {
	return b.Read(t, x).ret(t, v)
}

// Write appends a write(x,v) request by t.
func (b *Builder) Write(t ThreadID, x Reg, v Value) *Builder {
	return b.add(t, KindWrite, x, v)
}

// WriteRet appends a complete write of v to x.
func (b *Builder) WriteRet(t ThreadID, x Reg, v Value) *Builder {
	return b.Write(t, x, v).ret(t, 0)
}

// FBegin appends an fbegin request by t.
func (b *Builder) FBegin(t ThreadID) *Builder { return b.add(t, KindFBegin, 0, 0) }

// FEnd appends an fend response by t.
func (b *Builder) FEnd(t ThreadID) *Builder { return b.add(t, KindFEnd, 0, 0) }

// Fence appends a complete fence by t.
func (b *Builder) Fence(t ThreadID) *Builder { return b.FBegin(t).FEnd(t) }

// MustAnalyze builds, checks well-formedness, and panics on failure. For
// use in tests and in litmus encodings of the paper's figures, where the
// history is a constant.
func (b *Builder) MustAnalyze() *Analysis {
	a, err := CheckWellFormed(b.h)
	if err != nil {
		panic(err)
	}
	return a
}
