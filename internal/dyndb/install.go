package dyndb

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/term"
	"repro/internal/word"
)

type patchOp struct {
	addr uint32
	w    word.Word
}

// View is a consistent snapshot of a materialised database: the code
// frontier goal blocks load above, the entry table goals link
// against, the version the machine now carries, and the tail layout
// epoch that version was laid out in.
type View struct {
	Top     uint32
	Entries map[term.Indicator]uint32
	Version uint64
	// Epoch changes when a compaction re-lays the tail: the words
	// below an older view's Top no longer hold what the database
	// means there, so a machine carrying that view is re-installed
	// from its boot mark rather than topped up.
	Epoch uint64
}

// Materialize brings a machine to the database's current version and
// returns the view it now carries. have is the view the machine got
// from its previous Materialize of this same database, or the zero
// View if it carries none (freshly booted, or last used by another
// database); boot is the mark taken when the machine booted from the
// database's image.
//
// Within one layout epoch the install is incremental: the goal block
// above have.Top is dropped, the tail grown since is loaded above the
// old frontier, and the copy-on-write overlay repairs every retargeted
// call site below it. Without a view, or across a compaction, the
// machine is rolled back to boot and the whole delta is installed.
// Either way every write is diff-aware (words already holding their
// value cost nothing), so re-installing the same tenant's delta after
// a rollback is a comparison sweep. The returned View reflects exactly
// the version installed, even if the database mutates concurrently
// afterwards.
func (db *DB) Materialize(m *machine.Machine, boot machine.CodeMark, have View) (View, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	known := have.Entries
	if known != nil && have.Epoch == db.epoch {
		if m.CodeTop() > have.Top {
			m.TruncateCode(have.Top)
		}
		if have.Version == db.version {
			return have, nil
		}
	} else {
		m.Rollback(boot)
		known = db.baseEntries
	}
	top := m.CodeTop()
	if top < db.baseTop || uint64(top) > uint64(db.baseTop)+uint64(len(db.tail)) {
		return View{}, fmt.Errorf("dyndb: machine frontier %d outside [%d,%d], boot it from the database's image",
			top, db.baseTop, db.baseTop+uint32(len(db.tail)))
	}
	if _, err := m.LoadDyn(db.tail[top-db.baseTop:]); err != nil {
		return View{}, err
	}
	for _, p := range db.sortedPatches() {
		if m.CodeWordAt(p.addr) == p.w {
			continue
		}
		if err := m.PatchDyn(p.addr, []word.Word{p.w}); err != nil {
			return View{}, err
		}
	}
	// Register only what differs from the machine's table (the boot
	// image's after a rollback), and drop entries of replaced blocks.
	for pi, a := range db.entries {
		if ka, ok := known[pi]; !ok || ka != a {
			m.RegisterPred(pi, a)
		}
	}
	for pi := range known {
		if _, live := db.entries[pi]; !live {
			m.UnregisterPred(pi)
		}
	}
	return View{
		Top:     db.baseTop + uint32(len(db.tail)),
		Entries: db.entriesSnapshot(),
		Version: db.version,
		Epoch:   db.epoch,
	}, nil
}
