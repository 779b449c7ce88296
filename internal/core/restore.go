package core

import (
	"fmt"
	"sort"

	"rmtk/internal/isa"
	"rmtk/internal/table"
)

// This file is the kernel's side of crash recovery (internal/wal +
// internal/ctrl): explicit-id registration so a checkpoint can rebuild an
// id space with holes (removed tables/programs never recycle ids), and
// inventory enumerators so the control plane can snapshot every registry
// deterministically. Only the restore path uses the *At registrars; normal
// operation allocates ids sequentially.

// CreateTableAt registers a table at an explicit id. Restored ids must
// arrive in ascending order; the table allocator resumes after the highest.
// Quota caps are not enforced here: restore replays already-admitted state,
// and a checkpoint taken after a quota was lowered below the tenant's live
// table count must still recover.
func (k *Kernel) CreateTableAt(id int64, t *table.Table) error {
	if id <= 0 {
		return fmt.Errorf("core: restore table id %d: must be positive", id)
	}
	_, err := k.createTable(t, id)
	return err
}

// RegisterModelOwnedAt registers a tenant-owned model at an explicit id — the
// restore path for models created through RegisterModelOwned.
func (k *Kernel) RegisterModelOwnedAt(id int64, owner string, m Model) error {
	if id <= 0 {
		return fmt.Errorf("core: restore model id %d: must be positive", id)
	}
	_, err := k.registerModel(owner, m, id)
	return err
}

// RegisterMatrixAt registers a weight matrix at an explicit id (ascending
// restore order).
func (k *Kernel) RegisterMatrixAt(id int64, m *Matrix) error {
	if id <= 0 {
		return fmt.Errorf("core: restore matrix id %d: must be positive", id)
	}
	_, err := k.registerMatrix(m, id)
	return err
}

// AllocState reports the id allocators' high-water marks. Together with the
// *At registrars this lets a checkpoint restore reproduce the exact id
// trajectory — including holes where resources were removed — so replayed
// log records that reference later-allocated ids resolve correctly.
func (k *Kernel) AllocState() (nextTable, nextProg, nextModel, nextMat int64) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.nextTable, k.nextProg, k.nextModel, k.nextMat
}

// RestoreAllocState advances the id allocators to checkpointed high-water
// marks. Allocators only ratchet forward; restoring below a live id is a
// corrupt checkpoint.
func (k *Kernel) RestoreAllocState(nextTable, nextProg, nextModel, nextMat int64) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if nextTable < k.nextTable || nextProg < k.nextProg || nextModel < k.nextModel || nextMat < k.nextMat {
		return fmt.Errorf("core: restore allocators (%d,%d,%d,%d) below live ids (%d,%d,%d,%d)",
			nextTable, nextProg, nextModel, nextMat, k.nextTable, k.nextProg, k.nextModel, k.nextMat)
	}
	k.nextTable, k.nextProg, k.nextModel, k.nextMat = nextTable, nextProg, nextModel, nextMat
	return nil
}

// TableIDs lists registered table ids in ascending order.
func (k *Kernel) TableIDs() []int64 {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return sortedKeys(k.tables)
}

// ProgramIDs lists installed program ids in ascending order.
func (k *Kernel) ProgramIDs() []int64 {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return sortedKeys(k.progs)
}

// ModelIDs lists registered model ids in ascending order.
func (k *Kernel) ModelIDs() []int64 {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return sortedKeys(k.models)
}

// MatrixIDs lists registered weight-matrix ids in ascending order.
func (k *Kernel) MatrixIDs() []int64 {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return sortedKeys(k.mats)
}

// Program returns the admitted program at id (the kernel's clone, carrying
// its admission artifacts). Callers must not mutate it.
func (k *Kernel) Program(id int64) (*isa.Program, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	p, ok := k.progs[id]
	if !ok {
		return nil, fmt.Errorf("%w: program %d", ErrNotFound, id)
	}
	return p.prog, nil
}

// ModelOwner reports the owning tenant of a registered model ("" for
// default-owned models); the checkpoint writer persists it.
func (k *Kernel) ModelOwner(id int64) string {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.modelOwner[id]
}

// Matrix returns the weight matrix at id. Callers must not mutate it.
func (k *Kernel) Matrix(id int64) (*Matrix, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	m, ok := k.mats[id]
	if !ok {
		return nil, fmt.Errorf("%w: matrix %d", ErrNotFound, id)
	}
	return m, nil
}

func sortedKeys[V any](m map[int64]V) []int64 {
	out := make([]int64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
