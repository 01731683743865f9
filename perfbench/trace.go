package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// The traced run observes the engine from outside. Spans bracket the
// benchmark's own calls into the engine (stmt, tquel.parse, core.exec,
// core.open). Page and log I/O happen far too often for a span each — Q11
// alone makes about 237k page calls — so the wrappers installed through
// core.Options.WrapFile and WrapLog only add to counters, which the
// enclosing stmt span reads before and after.

// ioCounts is a snapshot of the wrapped storage and log calls.
type ioCounts struct {
	readCalls, readPages, readNS    int64 // storage.File reads
	writeCalls, writePages, writeNS int64 // storage.File writes and allocations
	logAppends, logBytes, logNS     int64 // storage.Log WriteAt
	logReads, logReadBytes          int64 // storage.Log ReadAt (recovery)
	syncs, syncNS                   int64 // storage.Log Sync
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{
		a.readCalls - b.readCalls, a.readPages - b.readPages, a.readNS - b.readNS,
		a.writeCalls - b.writeCalls, a.writePages - b.writePages, a.writeNS - b.writeNS,
		a.logAppends - b.logAppends, a.logBytes - b.logBytes, a.logNS - b.logNS,
		a.logReads - b.logReads, a.logReadBytes - b.logReadBytes,
		a.syncs - b.syncs, a.syncNS - b.syncNS,
	}
}

func (a ioCounts) add(b ioCounts) ioCounts {
	return ioCounts{
		a.readCalls + b.readCalls, a.readPages + b.readPages, a.readNS + b.readNS,
		a.writeCalls + b.writeCalls, a.writePages + b.writePages, a.writeNS + b.writeNS,
		a.logAppends + b.logAppends, a.logBytes + b.logBytes, a.logNS + b.logNS,
		a.logReads + b.logReads, a.logReadBytes + b.logReadBytes,
		a.syncs + b.syncs, a.syncNS + b.syncNS,
	}
}

// busyNS is the time spent inside wrapped storage and log calls.
func (a ioCounts) busyNS() int64 { return a.readNS + a.writeNS + a.logNS + a.syncNS }

// ioCounter accumulates the calls of every wrapped file of one database.
type ioCounter struct {
	mu     sync.Mutex
	c      ioCounts
	syncUS []float64 // each Sync's duration
}

func (c *ioCounter) snapshot() ioCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}

func (c *ioCounter) add(f func(*ioCounts)) {
	c.mu.Lock()
	f(&c.c)
	c.mu.Unlock()
}

func (c *ioCounter) wrapFile(_ string, f storage.File) storage.File { return &timedFile{File: f, c: c} }

func (c *ioCounter) wrapLog(_ string, l storage.Log) storage.Log { return &timedLog{Log: l, c: c} }

// timedFile counts and times page I/O under the buffer manager. It sits
// above wal.Logged, so write time includes the WAL's image capture.
type timedFile struct {
	storage.File
	c *ioCounter
}

func (f *timedFile) ReadPage(id page.ID, p *page.Page) error {
	t0 := time.Now()
	err := f.File.ReadPage(id, p)
	d := time.Since(t0).Nanoseconds()
	f.c.add(func(s *ioCounts) { s.readCalls++; s.readPages++; s.readNS += d })
	return err
}

func (f *timedFile) ReadPages(id page.ID, ps []page.Page) error {
	t0 := time.Now()
	err := f.File.ReadPages(id, ps)
	d := time.Since(t0).Nanoseconds()
	f.c.add(func(s *ioCounts) { s.readCalls++; s.readPages += int64(len(ps)); s.readNS += d })
	return err
}

func (f *timedFile) WritePage(id page.ID, p *page.Page) error {
	t0 := time.Now()
	err := f.File.WritePage(id, p)
	d := time.Since(t0).Nanoseconds()
	f.c.add(func(s *ioCounts) { s.writeCalls++; s.writePages++; s.writeNS += d })
	return err
}

func (f *timedFile) Allocate() (page.ID, error) {
	t0 := time.Now()
	id, err := f.File.Allocate()
	d := time.Since(t0).Nanoseconds()
	f.c.add(func(s *ioCounts) { s.writeCalls++; s.writePages++; s.writeNS += d })
	return id, err
}

// timedLog counts and times the write-ahead log's appends and syncs.
type timedLog struct {
	storage.Log
	c *ioCounter
}

func (l *timedLog) WriteAt(b []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := l.Log.WriteAt(b, off)
	d := time.Since(t0).Nanoseconds()
	l.c.add(func(s *ioCounts) { s.logAppends++; s.logBytes += int64(n); s.logNS += d })
	return n, err
}

func (l *timedLog) ReadAt(b []byte, off int64) (int, error) {
	n, err := l.Log.ReadAt(b, off)
	l.c.add(func(s *ioCounts) { s.logReads++; s.logReadBytes += int64(n) })
	return n, err
}

func (l *timedLog) Sync() error {
	t0 := time.Now()
	err := l.Log.Sync()
	d := time.Since(t0).Nanoseconds()
	l.c.mu.Lock()
	l.c.c.syncs++
	l.c.c.syncNS += d
	l.c.syncUS = append(l.c.syncUS, float64(d)/1e3)
	l.c.mu.Unlock()
	return err
}

// span is one traced interval. Times are nanoseconds since the tracer
// started. A stmt span also carries the storage and log calls made while
// it ran (single-client workloads; on shared-warm the two sessions' calls
// cannot be told apart, so they are only totalled per workload).
type span struct {
	id, parent int64
	name       string
	start, end int64
	ioCalls    int64
	ioNS       int64
}

// tracer holds the spans of one run in memory until the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) record(ss ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// writeSpans writes the spans as CSV to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns,io_calls,io_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", s.id, s.parent, s.name, s.start, s.end, s.ioCalls, s.ioNS)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error wins
		return err
	}
	return f.Close()
}
