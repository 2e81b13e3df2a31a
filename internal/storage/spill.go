package storage

import (
	"fmt"
	"os"
	"sync"

	"dbs3/internal/relation"
)

// Larger-than-memory execution: when a blocking operator exceeds its memory
// grant it writes state to spill runs and reads it back through a
// BufferPool. A query's runs all append their pages to one SpillSet — a
// single OS temp file of PageSize slotted pages — so however many runs a
// query spills, it holds at most one descriptor. The set is addressed like
// the simulated disk Array (PageID.Disk is always 0, PageID.Slot the page's
// slot in the file), so the pool, page, and codec layers serve both
// regimes unchanged.

// SpillSet is a query's spill file: append-only, shared by every run, opened
// on the first page written and removed from the filesystem on Close. It
// satisfies PageReader so a BufferPool can cache read-back.
type SpillSet struct {
	dir string

	mu     sync.Mutex
	f      *os.File // nil until the first page is written
	pages  int      // slots reserved
	files  int      // temp files opened (0 or 1)
	closed bool
}

// NewSpillSet creates an empty set writing its temp file under dir ("" =
// os.TempDir()).
func NewSpillSet(dir string) *SpillSet { return &SpillSet{dir: dir} }

// append writes a page image at the next free slot and returns the slot.
func (s *SpillSet) append(img []byte) (int, error) {
	if len(img) != PageSize {
		return 0, fmt.Errorf("storage: spill page image is %d bytes, want %d", len(img), PageSize)
	}
	// Reserve the slot under the lock; write outside it. Holding the
	// mutex across WriteAt would convoy concurrent writers and readers of
	// other slots behind this write's disk latency (the BufferPool.Get bug
	// class). WriteAt on distinct offsets is safe concurrently, and a
	// failed write just leaves a hole no run ever references — spill
	// errors abandon the whole set.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("storage: spill set already closed")
	}
	if s.f == nil {
		f, err := os.CreateTemp(s.dir, "dbs3-spill-*.pages")
		if err != nil {
			s.mu.Unlock()
			return 0, fmt.Errorf("storage: creating spill file: %w", err)
		}
		s.f = f
		s.files++
	}
	slot := s.pages
	s.pages++
	f := s.f
	s.mu.Unlock()
	if _, err := f.WriteAt(img, int64(slot)*PageSize); err != nil {
		return 0, fmt.Errorf("storage: writing spill page: %w", err)
	}
	return slot, nil
}

// Read fetches the page image at id, satisfying PageReader. The bounds
// check happens under the lock, the disk read outside it, so concurrent
// readers never serialize behind one another's I/O. A Close racing the
// read surfaces as a read error (closed descriptor), which only happens on
// the cancel/error path where the result is already discarded.
func (s *SpillSet) Read(id PageID) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("storage: read of closed spill set")
	}
	if id.Disk != 0 || id.Slot < 0 || id.Slot >= s.pages {
		pages := s.pages
		s.mu.Unlock()
		return nil, fmt.Errorf("storage: read of page %v in spill set with %d pages", id, pages)
	}
	f := s.f
	s.mu.Unlock()
	img := make([]byte, PageSize)
	if _, err := f.ReadAt(img, int64(id.Slot)*PageSize); err != nil {
		return nil, fmt.Errorf("storage: reading spill page: %w", err)
	}
	return img, nil
}

// Bytes returns the total page bytes written to the set.
func (s *SpillSet) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.pages) * PageSize
}

// Files returns the number of temp files the set has opened: 0 before the
// first spilled page, 1 after, however many runs were written.
func (s *SpillSet) Files() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.files
}

// Close closes and removes the spill file. Idempotent; called on query
// completion, error, and cancellation alike, so a query aborted mid-spill
// leaves no temp file or descriptor behind.
func (s *SpillSet) Close() error {
	s.mu.Lock()
	f := s.f
	s.f = nil
	s.closed = true
	s.mu.Unlock()
	if f == nil {
		return nil
	}
	err := f.Close()
	if rmErr := os.Remove(f.Name()); err == nil {
		err = rmErr
	}
	return err
}

// SpillEnv bundles a query's larger-than-memory resources: the accountant
// enforcing its memory grant, the spill file, and a buffer pool for
// read-back. The engine threads one env through every blocking operator of
// a query; Close on any exit path (success, error, cancel) removes all
// spill state.
type SpillEnv struct {
	Mem  *Accountant
	Set  *SpillSet
	Pool *BufferPool
}

// PoolPagesFor sizes a query's read-back buffer pool from its memory grant:
// a quarter of the grant in pages, within [8, 256] — the pool caches spilled
// pages, so it must stay small next to the grant itself.
func PoolPagesFor(grant int64) int {
	p := int(grant / PageSize / 4)
	if p < 8 {
		p = 8
	}
	if p > 256 {
		p = 256
	}
	return p
}

// NewSpillEnv creates an env with the given memory grant (bytes), temp dir
// ("" = os.TempDir()), and read-back pool capacity in pages (<= 0 picks a
// small default).
func NewSpillEnv(dir string, grant int64, poolPages int, metrics *PoolMetrics) (*SpillEnv, error) {
	if poolPages <= 0 {
		poolPages = 16
	}
	set := NewSpillSet(dir)
	pool, err := NewBufferPool(set, poolPages)
	if err != nil {
		return nil, err
	}
	pool.SetMetrics(metrics)
	return &SpillEnv{Mem: NewAccountant(grant), Set: set, Pool: pool}, nil
}

// Close tears down the env: drops cached pages and removes the spill file.
// Idempotent.
func (e *SpillEnv) Close() error {
	if e == nil {
		return nil
	}
	e.Pool.Close()
	return e.Set.Close()
}

// Spilled returns the query's cumulative (bytes, passes).
func (e *SpillEnv) Spilled() (bytes, passes int64) {
	if e == nil {
		return 0, 0
	}
	return e.Mem.Spilled()
}

// NewRun starts a run writer in the env's set.
func (e *SpillEnv) NewRun() *RunWriter { return &RunWriter{env: e} }

// RunWriter packs tuples into slotted pages appended to the env's spill
// set. Runs written concurrently interleave their pages in the file, so a
// run records the slots it owns. Writers are not safe for concurrent use;
// operators guard them with their own locks.
type RunWriter struct {
	env    *SpillEnv
	page   *Page
	slots  []int32
	tuples int
}

// Add appends a tuple to the run.
func (w *RunWriter) Add(t relation.Tuple) error {
	if w.page == nil {
		w.page = NewPage()
	}
	if !w.page.Insert(t) {
		if w.page.Count() == 0 {
			return fmt.Errorf("storage: tuple of %d bytes exceeds spill page capacity", EncodedSize(t))
		}
		if err := w.flush(); err != nil {
			return err
		}
		if !w.page.Insert(t) {
			return fmt.Errorf("storage: tuple of %d bytes exceeds spill page capacity", EncodedSize(t))
		}
	}
	w.tuples++
	return nil
}

func (w *RunWriter) flush() error {
	slot, err := w.env.Set.append(w.page.Bytes())
	if err != nil {
		return err
	}
	w.slots = append(w.slots, int32(slot))
	w.env.Mem.NoteSpill(PageSize)
	w.page = NewPage()
	return nil
}

// Finish flushes the partial page and returns the completed run.
func (w *RunWriter) Finish() (Run, error) {
	if w.page != nil && w.page.Count() > 0 {
		if err := w.flush(); err != nil {
			return Run{}, err
		}
	}
	return Run{env: w.env, slots: w.slots, tuples: w.tuples}, nil
}

// Tuples returns the number of tuples added so far.
func (w *RunWriter) Tuples() int { return w.tuples }

// Run is a finished sequence of spilled tuples, readable in write order
// through the env's buffer pool.
type Run struct {
	env    *SpillEnv
	slots  []int32 // the run's pages in write order
	tuples int
}

// Empty reports whether the run holds no tuples.
func (r Run) Empty() bool { return r.tuples == 0 }

// Len returns the number of tuples in the run.
func (r Run) Len() int { return r.tuples }

// Bytes returns the run's on-disk size.
func (r Run) Bytes() int64 { return int64(len(r.slots)) * PageSize }

// Each calls f for every tuple in write order, reading pages through the
// env's buffer pool.
func (r Run) Each(f func(t relation.Tuple) error) error {
	for _, slot := range r.slots {
		p, err := r.env.Pool.Get(PageID{Slot: int(slot)})
		if err != nil {
			return err
		}
		for i := 0; i < p.Count(); i++ {
			t, err := p.Tuple(i)
			if err != nil {
				return err
			}
			if err := f(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// All reads the whole run back into memory.
func (r Run) All() ([]relation.Tuple, error) {
	out := make([]relation.Tuple, 0, r.tuples)
	err := r.Each(func(t relation.Tuple) error {
		out = append(out, t)
		return nil
	})
	return out, err
}

// Cursor returns a streaming reader over the run for k-way merges.
func (r Run) Cursor() *RunCursor { return &RunCursor{run: r} }

// RunCursor streams a run one page at a time.
type RunCursor struct {
	run    Run
	slot   int // index into run.slots
	tuples []relation.Tuple
	pos    int
	cur    relation.Tuple
}

// Next advances to the next tuple, reporting false at the end of the run or
// on error (check Err).
func (c *RunCursor) Next() (relation.Tuple, bool, error) {
	for c.pos >= len(c.tuples) {
		if c.slot >= len(c.run.slots) {
			return nil, false, nil
		}
		p, err := c.run.env.Pool.Get(PageID{Slot: int(c.run.slots[c.slot])})
		if err != nil {
			return nil, false, err
		}
		c.slot++
		c.tuples, err = p.Tuples()
		if err != nil {
			return nil, false, err
		}
		c.pos = 0
	}
	t := c.tuples[c.pos]
	c.pos++
	return t, true, nil
}
