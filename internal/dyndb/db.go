// Package dyndb is the dynamic clause database: assert(a|z)/retract
// over per-predicate clause chains compiled through the regular
// compiler, with first-argument indexing regenerated on every
// mutation, layered copy-on-write above an immutable base image.
//
// A DB owns one tenant's view of a program: the shared base code
// space (never written), a private code tail holding the rebuilt
// predicate blocks, and a sparse overlay of patched words — the
// Call/Execute sites retargeted when a mutated predicate's entry
// moved. Machines materialise the view on demand (install.go): the
// whole pool shares one boot image while each tenant's asserted
// clauses stay private to its delta.
//
// A rebuild appends the new block and leaves the block it replaced
// dead in the tail. When a mutation would leave more dead words than
// live words plus CompactFloor, it commits by compacting instead:
// every live block is relinked contiguously from the base frontier
// and a new layout epoch begins (see View). The tail therefore never
// holds more than twice its live code plus CompactFloor words, and
// each write pays amortised O(1) compaction work per word it rebuilds.
//
// Every block enters a code space only through the analyzer's
// loader-grade validation (analysis.CheckEncoded): a malformed
// runtime clause is rejected with a typed *machine.CodeError before
// it can reach any machine, and the database state is unchanged.
package dyndb

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/kcmisa"
	"repro/internal/machine"
	"repro/internal/term"
	"repro/internal/word"
)

// Typed rejections of the mutation API.
var (
	// ErrStaticPred: the predicate is compiled statically in the base
	// image and cannot be mutated at runtime.
	ErrStaticPred = errors.New("dyndb: predicate is not dynamic")
	// ErrBadClause: the clause term is not compilable (non-callable
	// head, malformed control construct, unknown body goal...).
	ErrBadClause = errors.New("dyndb: malformed clause")
)

// CompactFloor is the number of dead tail words a database tolerates
// beyond its live code before a mutation compacts the tail: a
// committing mutation that leaves more than live+CompactFloor dead
// words re-lays the live blocks instead of appending.
const CompactFloor = 256

// pred is one dynamic predicate's clause chain and its current
// compiled block.
type pred struct {
	clauses []term.Term      // source clauses, chain order
	mod     *compiler.Module // compiled chain; compaction relinks it
	addr    uint32           // current entry address
	lo, hi  uint32           // current block extent (aux included)
	aux     []term.Indicator // auxiliary entries of the current block
}

// tailWords is the size of the predicate's current block if it lives
// in the tail (0 for a base stub or a declaration not yet built).
func (p *pred) tailWords(baseTop uint32) int {
	if p.lo < baseTop {
		return 0
	}
	return int(p.hi - p.lo)
}

// DB is one tenant's dynamic database over a shared base image.
type DB struct {
	mu   sync.Mutex
	syms *term.SymTab
	im   *asm.Image // the shared boot image; machines boot from it

	base        []word.Word // im.Code: shared, read-only
	baseTop     uint32
	baseEntries map[term.Indicator]uint32

	tail    []word.Word               // private delta code, loaded at baseTop
	live    int                       // tail words of the current blocks
	patches map[uint32]word.Word      // private rewrites of loaded words (base and tail)
	entries map[term.Indicator]uint32 // full current entry table
	preds   map[term.Indicator]*pred
	version uint64
	epoch   uint64 // tail layout; advanced by every compaction
	auxSeq  int

	compactions uint64 // tail re-layouts performed, for CodeStats
}

// New builds a database over a linked base image. The dynamic
// predicates must be present in the image as stubs or compiled
// chains (core.Program.BaseImage emits fail stubs); asserting to any
// other predicate of the image is rejected with ErrStaticPred, and
// asserting to a predicate the image does not know declares it on
// the fly.
func New(im *asm.Image, dynamic []term.Indicator) (*DB, error) {
	db := &DB{
		syms:        im.Syms,
		im:          im,
		base:        im.Code,
		baseTop:     uint32(len(im.Code)),
		baseEntries: make(map[term.Indicator]uint32, len(im.Entries)),
		patches:     map[uint32]word.Word{},
		entries:     make(map[term.Indicator]uint32, len(im.Entries)),
		preds:       map[term.Indicator]*pred{},
	}
	for pi, a := range im.Entries {
		db.baseEntries[pi] = a
		db.entries[pi] = a
	}
	for _, pi := range dynamic {
		a, ok := im.Entries[pi]
		if !ok {
			return nil, fmt.Errorf("dyndb: dynamic predicate %v has no stub in the base image", pi)
		}
		db.preds[pi] = &pred{addr: a, lo: a, hi: a + 1}
	}
	return db, nil
}

// Image returns the shared boot image machines materialising this
// database must have booted from.
func (db *DB) Image() *asm.Image { return db.im }

// Syms returns the symbol table shared by the base image and every
// block the database compiles.
func (db *DB) Syms() *term.SymTab { return db.syms }

// Version is a monotone mutation counter; it advances on every
// successful assert or retract, and installs compare it to decide
// whether a machine's materialised view is current.
func (db *DB) Version() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.version
}

// Dynamic reports whether pi is a dynamic predicate of this database.
func (db *DB) Dynamic(pi term.Indicator) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, ok := db.preds[pi]
	return ok
}

// Clauses returns a copy of the predicate's current chain.
func (db *DB) Clauses(pi term.Indicator) []term.Term {
	db.mu.Lock()
	defer db.mu.Unlock()
	p, ok := db.preds[pi]
	if !ok {
		return nil
	}
	return append([]term.Term(nil), p.clauses...)
}

// CodeStats is the size of a database's private code tail.
type CodeStats struct {
	LiveWords   int    // words of the current predicate blocks
	TailWords   int    // all tail words, current and superseded
	Compactions uint64 // tail re-layouts this database has performed
}

// CodeStats reports the database's tail size. Between compactions
// TailWords stays at most 2*LiveWords + CompactFloor.
func (db *DB) CodeStats() CodeStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return CodeStats{LiveWords: db.live, TailWords: len(db.tail), Compactions: db.compactions}
}

// Clone makes an independent database sharing the immutable base:
// the seed of a fresh tenant. Clause terms and compiled chains are
// shared (neither is ever mutated); the tail, overlay, entry table and
// chains are copied. The clone's compaction count starts at zero.
func (db *DB) Clone() *DB {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := &DB{
		syms:        db.syms,
		im:          db.im,
		base:        db.base,
		baseTop:     db.baseTop,
		baseEntries: db.baseEntries,
		tail:        append([]word.Word(nil), db.tail...),
		live:        db.live,
		patches:     make(map[uint32]word.Word, len(db.patches)),
		entries:     make(map[term.Indicator]uint32, len(db.entries)),
		preds:       make(map[term.Indicator]*pred, len(db.preds)),
		version:     db.version,
		epoch:       db.epoch,
		auxSeq:      db.auxSeq,
	}
	for a, w := range db.patches {
		c.patches[a] = w
	}
	for pi, a := range db.entries {
		c.entries[pi] = a
	}
	for pi, p := range db.preds {
		cp := *p
		cp.clauses = append([]term.Term(nil), p.clauses...)
		cp.aux = append([]term.Indicator(nil), p.aux...)
		c.preds[pi] = &cp
	}
	return c
}

// clauseHead returns the head of a clause term (the term itself for
// a fact), or nil for a directive.
func clauseHead(t term.Term) term.Term {
	if c, ok := t.(*term.Compound); ok {
		if c.Functor == ":-" && len(c.Args) == 2 {
			return c.Args[0]
		}
		if (c.Functor == ":-" || c.Functor == "?-") && len(c.Args) == 1 {
			return nil
		}
	}
	return t
}

// Assertz appends a clause to its predicate's chain; Asserta
// prepends. Both return the database version the mutation produced.
// A predicate unknown to the base image is declared dynamic on the
// fly; a static predicate of the base image is rejected with
// ErrStaticPred; an uncompilable clause is rejected with ErrBadClause
// (and a block failing loader-grade validation with a
// *machine.CodeError) — in every rejection case the database is
// unchanged.
func (db *DB) Assertz(cl term.Term) (uint64, error) { return db.assert(cl, false) }

// Asserta prepends a clause to its predicate's chain. See Assertz.
func (db *DB) Asserta(cl term.Term) (uint64, error) { return db.assert(cl, true) }

func (db *DB) assert(cl term.Term, front bool) (uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	pi, p, err := db.chainFor(cl, true)
	if err != nil {
		return 0, err
	}
	next := make([]term.Term, 0, len(p.clauses)+1)
	if front {
		next = append(next, cl)
		next = append(next, p.clauses...)
	} else {
		next = append(next, p.clauses...)
		next = append(next, cl)
	}
	if err := db.rebuild(pi, p, next); err != nil {
		return 0, err
	}
	return db.version, nil
}

// Retract removes the first clause of the chain that is a variant of
// cl (equal up to variable renaming) and reports whether one was
// found. The predicate's dispatch is rebuilt without it; retracting
// the last clause leaves a fail stub, exactly like a freshly
// declared predicate.
func (db *DB) Retract(cl term.Term) (bool, uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	pi, p, err := db.chainFor(cl, false)
	if err != nil {
		return false, 0, err
	}
	if p == nil {
		return false, db.version, nil
	}
	at := -1
	for i, have := range p.clauses {
		if term.Variant(have, cl) {
			at = i
			break
		}
	}
	if at < 0 {
		return false, db.version, nil
	}
	next := make([]term.Term, 0, len(p.clauses)-1)
	next = append(next, p.clauses[:at]...)
	next = append(next, p.clauses[at+1:]...)
	if err := db.rebuild(pi, p, next); err != nil {
		return false, 0, err
	}
	return true, db.version, nil
}

// Reload replaces a predicate's whole chain in one rebuild — the
// seeding path for initial clauses, and the bulk form of assert.
func (db *DB) Reload(pi term.Indicator, clauses []term.Term) (uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	p, ok := db.preds[pi]
	if !ok {
		if _, static := db.baseEntries[pi]; static {
			return 0, fmt.Errorf("%w: %v", ErrStaticPred, pi)
		}
		p = &pred{}
		db.preds[pi] = p
	}
	if err := db.rebuild(pi, p, append([]term.Term(nil), clauses...)); err != nil {
		if len(p.clauses) == 0 && p.hi == 0 {
			delete(db.preds, pi) // fresh declaration never materialised
		}
		return 0, err
	}
	return db.version, nil
}

// chainFor validates a clause term and resolves (declaring when
// asked) its predicate's chain.
func (db *DB) chainFor(cl term.Term, declare bool) (term.Indicator, *pred, error) {
	head := clauseHead(cl)
	if head == nil {
		return term.Indicator{}, nil, fmt.Errorf("%w: %v is a directive", ErrBadClause, cl)
	}
	pi, ok := term.TermIndicator(head)
	if !ok {
		return term.Indicator{}, nil, fmt.Errorf("%w: head %v is not callable", ErrBadClause, head)
	}
	p, known := db.preds[pi]
	if !known {
		if _, static := db.baseEntries[pi]; static {
			return term.Indicator{}, nil, fmt.Errorf("%w: %v", ErrStaticPred, pi)
		}
		if !declare {
			return pi, nil, nil
		}
		p = &pred{}
		db.preds[pi] = p
	}
	return pi, p, nil
}

// rebuild compiles a predicate's new chain, links it, validates it,
// and — only then — commits, bumping the version. The commit either
// appends the block at the top of the tail, or, when that would leave
// more than live+CompactFloor dead words behind, compacts the tail
// with the new chain in place. A rejected chain leaves the database
// unchanged. Callers hold db.mu.
func (db *DB) rebuild(pi term.Indicator, p *pred, clauses []term.Term) error {
	c := compiler.New(db.syms)
	c.SetAuxBase(db.auxSeq)
	mod, err := c.CompileClauses(pi, clauses)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadClause, err)
	}
	top := db.baseTop + uint32(len(db.tail))
	im, err := asm.LinkAt(mod, top, db.entries)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadClause, err)
	}
	live := db.live - p.tailWords(db.baseTop) + len(im.Code)
	if dead := len(db.tail) + len(im.Code) - live; dead > live+CompactFloor {
		err = db.compact(pi, mod)
	} else {
		err = db.appendBlock(pi, p, im)
	}
	if err != nil {
		return err
	}
	p.clauses = clauses
	p.mod = mod
	db.auxSeq = c.AuxBase()
	db.version++
	return nil
}

// appendBlock validates a block linked at the top of the tail and
// commits it: the block is appended, the entry table is updated, and
// every call site of the old entry is retargeted to the new block.
func (db *DB) appendBlock(pi term.Indicator, p *pred, im *asm.Image) error {
	top := db.baseTop + uint32(len(db.tail))
	if ds := analysis.CheckEncodedCached(im.Code, top, top); len(ds) > 0 {
		return &machine.CodeError{Base: top, Diags: ds}
	}
	newAddr, ok := im.Entries[pi]
	if !ok {
		return fmt.Errorf("dyndb: linked block lost entry %v", pi)
	}
	// The old entry address (0 means a fresh declaration with no
	// callers yet) is retargeted across the whole image.
	oldAddr := p.addr
	db.tail = append(db.tail, im.Code...)
	db.live += len(im.Code) - p.tailWords(db.baseTop)
	for _, api := range p.aux {
		delete(db.entries, api)
	}
	p.setBlock(pi, im, top)
	for _, mpi := range im.Order {
		db.entries[mpi] = im.Entries[mpi]
	}
	if oldAddr != 0 {
		db.retarget(oldAddr, newAddr)
	}
	return nil
}

// setBlock records a freshly linked block at base as the predicate's
// current one.
func (p *pred) setBlock(pi term.Indicator, im *asm.Image, base uint32) {
	p.aux = p.aux[:0]
	for _, mpi := range im.Order {
		if mpi != pi {
			p.aux = append(p.aux, mpi)
		}
	}
	p.addr = im.Entries[pi]
	p.lo, p.hi = base, base+uint32(len(im.Code))
}

// compact commits pi's new chain (mod) by re-laying the tail: every
// live block — the other predicates' current blocks in address order,
// then pi's — is linked contiguously from baseTop, the entry table is
// rebuilt from the base entries, and the overlay keeps only retargeted
// base call sites. The layout is two-pass so that blocks calling each
// other link in any order: pass 1 fixes every block's address (a
// block's layout does not depend on where its callees are), pass 2
// links each block against the final entry table. The database is
// untouched until the whole new tail has been validated.
func (db *DB) compact(pi term.Indicator, mod *compiler.Module) error {
	type block struct {
		pi   term.Indicator
		p    *pred
		mod  *compiler.Module
		base uint32
		im   *asm.Image
	}
	var blocks []block
	for bpi, bp := range db.preds {
		if bpi != pi && bp.tailWords(db.baseTop) > 0 {
			blocks = append(blocks, block{pi: bpi, p: bp, mod: bp.mod})
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].p.lo < blocks[j].p.lo })
	blocks = append(blocks, block{pi: pi, p: db.preds[pi], mod: mod})

	// Pass 1: addresses. Linking against the current table resolves
	// every external, and yields each block's size and own entries at
	// its final base.
	entries := make(map[term.Indicator]uint32, len(db.entries))
	for epi, a := range db.baseEntries {
		entries[epi] = a
	}
	top := db.baseTop
	for i := range blocks {
		im, err := asm.LinkAt(blocks[i].mod, top, db.entries)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadClause, err)
		}
		blocks[i].base = top
		for epi, a := range im.Entries {
			entries[epi] = a
		}
		top += uint32(len(im.Code))
	}
	// Pass 2: link every block against the final table.
	tail := make([]word.Word, 0, top-db.baseTop)
	for i := range blocks {
		im, err := asm.LinkAt(blocks[i].mod, blocks[i].base, entries)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadClause, err)
		}
		blocks[i].im = im
		tail = append(tail, im.Code...)
	}
	if ds := analysis.CheckEncodedCached(tail, db.baseTop, db.baseTop); len(ds) > 0 {
		return &machine.CodeError{Base: db.baseTop, Diags: ds}
	}

	// Retarget base call sites in one sweep over an old->new entry
	// map. New addresses reuse old tail addresses, so retargeting
	// block by block could move a site twice. Every patched base site
	// targets the current entry of a predicate with a tail block, so
	// the map covers all of them.
	moved := make(map[uint32]uint32, len(blocks))
	for _, b := range blocks {
		if b.p.addr != 0 {
			moved[b.p.addr] = entries[b.pi]
		}
	}
	patches := make(map[uint32]word.Word, len(db.patches))
	var in kcmisa.Instr
	for a := uint32(0); a < db.baseTop; {
		n := kcmisa.DecodeInto(db.codeAt, a, &in)
		if n <= 0 {
			n = 1
		}
		if in.Op == kcmisa.Call || in.Op == kcmisa.Execute {
			if to, ok := moved[uint32(in.L)]; ok {
				patches[a] = db.codeAt(a)&^word.Word(0xFFFFFFFF) | word.Word(to)
			}
		}
		a += uint32(n)
	}

	for _, b := range blocks {
		b.p.setBlock(b.pi, b.im, b.base)
	}
	db.tail, db.live = tail, len(tail)
	db.patches, db.entries = patches, entries
	db.epoch++
	db.compactions++
	return nil
}

// codeAt reads the database's current view of the code space: base
// words under their overlay, then the private tail.
func (db *DB) codeAt(a uint32) word.Word {
	if a < db.baseTop {
		if w, ok := db.patches[a]; ok {
			return w
		}
		return db.base[a]
	}
	if i := int(a - db.baseTop); i < len(db.tail) {
		return db.tail[i]
	}
	return 0
}

// retarget rewrites every Call/Execute site whose target is old to
// point at new, walking the image instruction by instruction (switch
// tables are skipped atomically, so a key word can never be mistaken
// for a call). The value part of the instruction word is rewritten
// in place; the opcode half is untouched. Tail words are additionally
// updated in place (the tail is private, and a fresh machine loads it
// wholesale), but every rewrite goes to the overlay, which is how
// incremental Materialize repairs call sites below an already-synced
// machine's frontier.
func (db *DB) retarget(old, new uint32) {
	top := db.baseTop + uint32(len(db.tail))
	var in kcmisa.Instr
	for a := uint32(0); a < top; {
		n := kcmisa.DecodeInto(db.codeAt, a, &in)
		if n <= 0 {
			n = 1
		}
		if (in.Op == kcmisa.Call || in.Op == kcmisa.Execute) && in.L == int(old) {
			w := db.codeAt(a)&^word.Word(0xFFFFFFFF) | word.Word(new)
			if a >= db.baseTop {
				db.tail[a-db.baseTop] = w
			}
			// Every rewrite also lands in the overlay — including tail
			// words — because Materialize onto an already-synced machine
			// loads only the tail beyond its frontier; the overlay sweep
			// is what reaches call sites below it.
			db.patches[a] = w
		}
		a += uint32(n)
	}
}

// entriesSnapshot copies the current entry table; callers hold db.mu.
func (db *DB) entriesSnapshot() map[term.Indicator]uint32 {
	out := make(map[term.Indicator]uint32, len(db.entries))
	for pi, a := range db.entries {
		out[pi] = a
	}
	return out
}

// sortedPatches returns the overlay in address order; callers hold
// db.mu.
func (db *DB) sortedPatches() []patchOp {
	out := make([]patchOp, 0, len(db.patches))
	for a, w := range db.patches {
		out = append(out, patchOp{addr: a, w: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}
