package machine

import (
	"repro/internal/term"
	"repro/internal/word"
)

// The code shadow: a host-side copy of the code space, so untimed
// readers (CodeWordAt, the diff-aware dyn write paths, snapshot image
// hashing and restore) never go through the simulated memory system
// and perturb no cycle or cache counter. Every path that writes code
// — the boot image load, LoadIncremental, LoadBatch, PatchCode and
// the dyn writes — mirrors its words here.

// shadowWrite mirrors a code-space write into the host-side shadow,
// growing it (zero-filled, which decodes as noop) across the
// page-alignment gaps of batch loads.
func (m *Machine) shadowWrite(base uint32, code []word.Word) {
	end := int(base) + len(code)
	for len(m.codeShadow) < end {
		m.codeShadow = append(m.codeShadow, 0)
	}
	copy(m.codeShadow[base:end], code)
}

// CodeWordAt reads a loaded code word from the host-side shadow
// (untimed; no simulated state is touched). Out-of-range reads
// return zero.
func (m *Machine) CodeWordAt(a uint32) word.Word {
	if int64(a) < int64(len(m.codeShadow)) {
		return m.codeShadow[a]
	}
	return 0
}

// RegisterPred enters a predicate into the machine's entry table,
// making it callable through the meta-call escape. Incrementally
// loaded code belongs to no predicate until registered.
func (m *Machine) RegisterPred(pi term.Indicator, addr uint32) {
	m.entries[pi] = addr
	idx := m.syms.Intern(pi.Name)
	m.preds[uint64(idx)<<8|uint64(pi.Arity&0xff)] = addr
}
