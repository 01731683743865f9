package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tdbms/internal/core"
)

// step is one statement of durable-update's seeded schedule. A point read
// carries the answer the model of the acknowledged writes predicts.
type step struct {
	cls        class
	src        string
	rel        int   // 0 = temporal_h, 1 = temporal_i
	key        int64 // the key written or read
	replace    bool
	wantExists bool
	wantSeq    int64
}

var relVar = [2]string{"h", "i"}

// keyModel is the seq of every live key per relation.
type keyModel [2]map[int64]int64

func baseModel(n int) keyModel {
	var m keyModel
	for r := range m {
		m[r] = make(map[int64]int64, n)
		for k := int64(1); k <= int64(n); k++ {
			m[r][k] = 0
		}
	}
	return m
}

// schedule draws durable-update's statements from the seed: one-tuple
// temporal DML by key alternating the hashed and the ISAM relation — 80%
// replace, 10% append of a new key, 10% delete — with every eighth
// statement a point read of the key just written. It returns the model of
// the database after the schedule.
func schedule(seed int64, n, length int) ([]step, keyModel) {
	rng := rand.New(rand.NewSource(seed))
	m := baseModel(n)
	var live [2][]int64
	for r := range live {
		for k := int64(1); k <= int64(n); k++ {
			live[r] = append(live[r], k)
		}
	}
	next := int64(n) + 1
	steps := make([]step, 0, length)
	writes := 0
	for len(steps) < length {
		if len(steps)%8 == 7 {
			w := steps[len(steps)-1]
			v := relVar[w.rel]
			seq, ok := m[w.rel][w.key]
			steps = append(steps, step{cls: point, rel: w.rel, key: w.key, wantExists: ok, wantSeq: seq,
				src: fmt.Sprintf(`retrieve (%s.id, %s.seq) where %s.id = %d when %s overlap "now"`, v, v, v, w.key, v)})
			continue
		}
		r := writes % 2
		writes++
		v := relVar[r]
		s := step{cls: write, rel: r}
		switch x := rng.Float64(); {
		case x < 0.8:
			s.key = live[r][rng.Intn(len(live[r]))]
			s.replace = true
			s.src = fmt.Sprintf(`replace %s (seq = %s.seq + 1) where %s.id = %d`, v, v, v, s.key)
			m[r][s.key]++
		case x < 0.9:
			s.key = next
			next++
			seq := rng.Int63n(100)
			s.src = fmt.Sprintf(`append to %s (id = %d, amount = %d, seq = %d, string = "%s")`,
				[2]string{relH, relI}[r], s.key, 100*(s.key-1), seq, strings.Repeat("x", 96))
			m[r][s.key] = seq
			live[r] = append(live[r], s.key)
		default:
			j := rng.Intn(len(live[r]))
			s.key = live[r][j]
			live[r][j] = live[r][len(live[r])-1]
			live[r] = live[r][:len(live[r])-1]
			s.src = fmt.Sprintf(`delete %s where %s.id = %d`, v, v, s.key)
			delete(m[r], s.key)
		}
		steps = append(steps, s)
	}
	return steps, m
}

// runDurable is durable-update: one client runs the seeded schedule on the
// 1x disk database with the WAL, one epoch after another (see diskPhase).
// Every count of an epoch — pages, log bytes — repeats exactly, while
// version chains grow within it. At the end of the last epoch the process
// is taken to crash: core.Open recovers the synced bytes, several times on
// fresh copies, and the recovered database must hold every acknowledged
// write.
func runDurable(cfg config) (*report, error) {
	base := filepath.Join(cfg.work, "base")
	var setups []float64
	for r := 0; r < cfg.setupReps; r++ {
		t0 := time.Now()
		if err := buildDiskBase(base); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep := newReport(cfg, setups)
	steps, model := schedule(cfg.seed, paperTuples, cfg.epochStmts)
	var io *ioCounter
	if cfg.trace {
		io = &ioCounter{}
	}
	c := &client{solo: true, tr: rep.tr, io: io}
	ph := newDiskPhase(cfg, base, io)
	var (
		image  map[string][]byte
		pages0 [2]int
		pages1 [2]int
	)
	mem0 := readMem()
	for ph.wall < cfg.dur {
		err := ph.epoch(func(db *core.Database) error {
			c.conn = db.DefaultSession()
			var err error
			if pages0[0], pages0[1], err = relPages(db); err != nil {
				return err
			}
			err = ph.timed(func() {
				for _, s := range steps {
					if s.cls == write {
						db.Clock().Advance(1)
					}
					res, err := c.exec(s.cls, s.src)
					if err == nil && s.cls == point {
						checkPoint(c, res, s)
					}
				}
			})
			if err != nil || ph.wall < cfg.dur {
				return err
			}
			if pages1[0], pages1[1], err = relPages(db); err != nil {
				return err
			}
			// The crash image keeps only what was synced: the log, forced
			// before each acknowledgement. The data files were never synced
			// after the epoch began, so they are the base's.
			if image, err = readDir(base); err != nil {
				return err
			}
			if image["wal.log"], err = os.ReadFile(filepath.Join(ph.live, "wal.log")); err != nil {
				return err
			}
			rep.finishPhase(db, []*client{c}, ph.wall, mem0, ph.logBytes)
			if cfg.trace {
				return planSteps(rep, c.conn, steps)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	rep.io, rep.syncUS = ph.ioSum, ph.syncUS
	rep.notef("sizes: %d tuples per relation at start; over each epoch of %d statements %s grows %d->%d pages, %s %d->%d; %d epochs; 1 frame per relation; disk; WAL sync on commit",
		paperTuples, len(steps), relH, pages0[0], pages1[0], relI, pages0[1], pages1[1], ph.epochs)
	if cfg.dropAck {
		dropOneReplace(steps, model)
	}
	return rep, recoverImage(cfg, rep, image, model)
}

// planSteps adds the plans of the schedule's first point reads, run again
// on the final state of the last epoch.
func planSteps(rep *report, conn *core.Conn, steps []step) error {
	n := 0
	for _, s := range steps {
		if s.cls != point || n == 8 {
			continue
		}
		if err := rep.addPlan(conn, s.src); err != nil {
			return err
		}
		n++
	}
	return nil
}

// checkPoint compares a point read with the model's prediction.
func checkPoint(c *client, res *core.Result, s step) {
	ok := len(res.Rows) == 0 && !s.wantExists
	if len(res.Rows) == 1 && s.wantExists {
		ok = res.Rows[0][0].I == s.key && res.Rows[0][1].I == s.wantSeq
	}
	if !ok {
		c.failf("read of %s key %d: %d rows, want exists=%v seq=%d", relVar[s.rel], s.key, len(res.Rows), s.wantExists, s.wantSeq)
	}
}

// dropOneReplace makes the model forget the schedule's last replace of a
// key that is still live: the durability check must then fail.
func dropOneReplace(steps []step, m keyModel) {
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		if _, ok := m[s.rel][s.key]; ok && s.replace {
			m[s.rel][s.key]--
			return
		}
	}
}

// recoverImage times core.Open on fresh copies of the crash image and
// checks the first recovery against the model: every acknowledged write
// survives and the structure is intact.
func recoverImage(cfg config, rep *report, image map[string][]byte, model keyModel) error {
	var opens []float64
	for r := 0; r < cfg.recoveryReps; r++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("recover-%d", r))
		if err := writeDir(image, dir); err != nil {
			return err
		}
		var io *ioCounter
		if cfg.trace {
			io = &ioCounter{}
		}
		var id int64
		t0 := time.Now()
		db, err := openDisk(dir, io)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		opens = append(opens, d.Seconds())
		if rep.tr != nil {
			id = rep.tr.newID()
			rep.tr.record(span{id: id, name: "core.open", start: rep.tr.since(t0), end: rep.tr.since(t0.Add(d))})
		}
		if r == 0 {
			checkModel(rep, db, model, "after recovery")
			if io != nil {
				c := io.snapshot()
				logMB := float64(len(image["wal.log"])) / (1 << 20)
				rep.layer["recovery.log_mb"] = logMB
				rep.layer["recovery.log_read_mb"] = float64(c.logReadBytes) / (1 << 20)
				rep.layer["recovery.page_writes"] = float64(c.writePages)
			}
		}
		if err := db.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	med := quantile(opens, 0.5)
	rep.notef("recovery_s %.6f (median of %d opens of a %d-byte log: %s)", med, len(opens), len(image["wal.log"]), fmtList(opens, "%.4f"))
	if rep.tr != nil {
		rep.layer["recovery.open_ms"] = med * 1e3
		rep.layer["recovery.ms_per_log_mb"] = div(med*1e3, rep.layer["recovery.log_mb"])
	}
	return nil
}
