package service

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"uwpos/internal/faultinject"
	"uwpos/internal/wire"
)

// snapExt names durable snapshot files; one file per session, named by
// session ID so saves are idempotent overwrites.
const snapExt = ".snap"

// quarantineDir holds snapshots that failed to decode at boot. They are
// moved, not deleted: a corrupt file is evidence (torn write, bit rot,
// version skew) that an operator may want, and moving it guarantees the
// next boot does not trip over it again.
const quarantineDir = "quarantine"

// Store persists session snapshots in a flat state directory with
// crash-safe writes (wire.WriteFile: temp file, fsync, rename), so a
// snapshot file is always either the complete old version or the
// complete new one.
type Store struct {
	dir string
	inj *faultinject.Injector
}

// OpenStore prepares dir (and its quarantine subdirectory) for snapshot
// traffic. The injector may be nil; when set, its write faults surface
// exactly as real disk errors would.
func OpenStore(dir string, inj *faultinject.Injector) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("service: preparing state dir: %w", err)
	}
	return &Store{dir: dir, inj: inj}, nil
}

func (st *Store) path(id string) string { return filepath.Join(st.dir, id+snapExt) }

// Save durably writes one session's snapshot blob. A crash mid-write
// leaves at worst one stale "<id>.snap.tmp" file, which List ignores and
// the next Save of the same session truncates.
func (st *Store) Save(id string, blob []byte) error {
	if err := st.inj.WriteError("snapshot " + id); err != nil {
		return err
	}
	if err := wire.WriteFile(st.path(id), blob); err != nil {
		return fmt.Errorf("service: snapshot write: %w", err)
	}
	return nil
}

// Delete removes a session's snapshot; a session deleted by the client
// or evicted by TTL must not resurrect on the next boot. Missing files
// are fine (the session may never have committed a round).
func (st *Store) Delete(id string) error {
	err := os.Remove(st.path(id))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("service: snapshot delete: %w", err)
	}
	return nil
}

// List returns the session IDs with a committed snapshot on disk, sorted
// for deterministic boot order.
func (st *Store) List() ([]string, error) {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("service: listing state dir: %w", err)
	}
	var ids []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapExt) {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, snapExt))
	}
	sort.Strings(ids)
	return ids, nil
}

// Load reads one session's snapshot blob.
func (st *Store) Load(id string) ([]byte, error) {
	b, err := os.ReadFile(st.path(id))
	if err != nil {
		return nil, fmt.Errorf("service: snapshot read: %w", err)
	}
	return b, nil
}

// Quarantine moves a snapshot that failed to decode into the quarantine
// subdirectory, out of the boot path but preserved for inspection.
func (st *Store) Quarantine(id string) error {
	dst := filepath.Join(st.dir, quarantineDir, id+snapExt)
	if err := os.Rename(st.path(id), dst); err != nil {
		return fmt.Errorf("service: quarantining snapshot: %w", err)
	}
	return nil
}
