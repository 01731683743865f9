package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tdbms/internal/bench"
	"tdbms/internal/core"
	"tdbms/internal/difftest"
)

// buildDiskBase builds the 1x temporal database in a fresh dir on disk,
// with the WAL at the default sync-on-commit policy, and closes it
// cleanly, leaving an empty log.
func buildDiskBase(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	db, err := buildPaperDB(core.Options{Dir: dir, WAL: true}, paperTuples, 0)
	if err != nil {
		return err
	}
	return db.Close()
}

// openDisk opens a disk database with the WAL, wrapped on the traced run,
// and binds h and i on its default session.
func openDisk(dir string, io *ioCounter) (*core.Database, error) {
	opts := core.Options{Dir: dir, WAL: true}
	if io != nil {
		opts.WrapFile, opts.WrapLog = io.wrapFile, io.wrapLog
	}
	db, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	if _, err := db.Exec(fmt.Sprintf("range of h is %s\nrange of i is %s", relH, relI)); err != nil {
		_ = db.Close() // the range error wins
		return nil, err
	}
	return db, nil
}

// diskPhase is the timed phase of a disk workload, run in epochs. Each
// epoch restores the clean base image into a fresh directory and opens it,
// so what an epoch does repeats from the same state however many epochs
// fit in the run, and the log and the relations stay bounded. Only the
// work passed to timed counts toward the run's time, I/O and log bytes.
type diskPhase struct {
	base, live string
	io         *ioCounter // nil on the end-to-end run
	wall       time.Duration
	epochs     int
	logBytes   int64
	ioSum      ioCounts
	syncUS     []float64
}

func newDiskPhase(cfg config, base string, io *ioCounter) *diskPhase {
	return &diskPhase{base: base, live: filepath.Join(cfg.work, "live"), io: io}
}

// epoch restores the base image, opens it, runs fn on it and closes it.
func (p *diskPhase) epoch(fn func(db *core.Database) error) error {
	if err := copyDir(p.base, p.live); err != nil {
		return err
	}
	db, err := openDisk(p.live, p.io)
	if err != nil {
		return err
	}
	p.epochs++
	err = fn(db)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.RemoveAll(p.live)
}

// timed runs fn as timed work of the current epoch.
func (p *diskPhase) timed(fn func()) error {
	logPath := filepath.Join(p.live, "wal.log")
	log0, err := fileSize(logPath)
	if err != nil {
		return err
	}
	var io0 ioCounts
	var sync0 int
	if p.io != nil {
		io0, sync0 = p.io.snapshot(), len(p.io.syncUS)
	}
	t0 := time.Now()
	fn()
	p.wall += time.Since(t0)
	if p.io != nil {
		p.ioSum = p.ioSum.add(p.io.snapshot().sub(io0))
		p.syncUS = append(p.syncUS, p.io.syncUS[sync0:]...)
	}
	log1, err := fileSize(logPath)
	if err != nil {
		return err
	}
	p.logBytes += log1 - log0
	return nil
}

// checkModel checks a database against the model of the acknowledged
// writes, counting each failure: CheckIntegrity passes, and every key of
// each relation exists with the model's current seq, and no other does.
func checkModel(rep *report, db *core.Database, model keyModel, what string) {
	if err := db.CheckIntegrity(); err != nil {
		rep.failed++
		rep.notef("%s: integrity: %v", what, err)
	}
	for r, v := range relVar {
		got, err := difftest.CurrentSeqs(db, bench.Temporal, v)
		if err != nil {
			rep.failed++
			rep.notef("%s: reading %s: %v", what, v, err)
			continue
		}
		bad := 0
		for k, want := range model[r] {
			if seq, ok := got[k]; !ok || seq != want {
				bad++
			}
		}
		for k := range got {
			if _, ok := model[r][k]; !ok {
				bad++
			}
		}
		if bad > 0 {
			rep.failed += bad
			rep.notef("%s: %d keys of %s differ from the acknowledged writes", what, bad, v)
		}
	}
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// readDir reads every regular file of dir: the crash image of a process
// abandoned at this instant.
func readDir(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = data
	}
	return out, nil
}

// writeDir materializes files into a fresh directory.
func writeDir(files map[string][]byte, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func copyDir(src, dst string) error {
	files, err := readDir(src)
	if err != nil {
		return err
	}
	return writeDir(files, dst)
}
