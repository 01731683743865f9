package main

import (
	"fmt"
	"math/rand"
	"time"

	"tdbms/internal/bench"
	"tdbms/internal/core"
)

// coldClass maps each Figure 4 query to its latency class.
var coldClass = map[string]class{
	"Q01": point, "Q02": point, "Q05": point, "Q06": point,
	"Q03": scan, "Q04": scan, "Q07": scan, "Q08": scan, "Q12": scan,
	"Q09": join, "Q10": join, "Q11": join,
}

// runCold is paper-cold-10x: the twelve-query suite round-robin from one
// client, in memory under the one-frame policy, buffers invalidated before
// every query. The seed picks the query the round-robin starts at; the
// data is the paper's and does not vary. Only whole passes run, so the
// page counts of a run are fixed.
func runCold(cfg config) (*report, error) {
	n := cfg.scale * paperTuples
	var (
		db     *core.Database
		io     *ioCounter
		setups []float64
	)
	for r := 0; r < cfg.setupReps; r++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, err
			}
		}
		opts := core.Options{}
		if cfg.trace {
			io = &ioCounter{}
			opts.WrapFile = io.wrapFile
		}
		t0 := time.Now()
		var err error
		if db, err = buildPaperDB(opts, n, 2); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer db.Close()

	rep := newReport(cfg, setups)
	hPages, iPages, err := relPages(db)
	if err != nil {
		return nil, err
	}
	rep.notef("sizes: %d tuples per relation, uc 2, %s %d pages, %s %d pages, 1 frame per relation, in memory",
		n, relH, hPages, relI, iPages)

	qs := bench.Queries(bench.Temporal)
	start := rand.New(rand.NewSource(cfg.seed)).Intn(len(qs))
	rep.notef("round-robin starts at %s", qs[start].ID)
	c := &client{conn: db.DefaultSession(), solo: true}
	if cfg.trace {
		c.tr, c.io = rep.tr, io
	}
	// At 10x every query must match its pin; at other sizes (the
	// self-test), every repetition must match the first.
	var want map[string]pin
	if cfg.scale == 10 {
		want = pins10
	}
	seen := map[string]pin{}
	io0 := ioCounts{}
	if io != nil {
		io0 = io.snapshot()
	}
	mem0 := readMem()
	t0 := time.Now()
	for pass := 0; pass == 0 || time.Since(t0) < cfg.dur; pass++ {
		for k := range qs {
			q := qs[(start+k)%len(qs)]
			if err := db.InvalidateBuffers(); err != nil {
				return nil, err
			}
			res, err := c.exec(coldClass[q.ID], q.Text)
			if err != nil {
				continue
			}
			got := pin{len(res.Rows), res.Input}
			ref, ok := want[q.ID]
			if !ok {
				if ref, ok = seen[q.ID]; !ok {
					seen[q.ID], ref = got, got
				}
			}
			if got != ref {
				c.failf("%s: %d rows, %d pages; want %d rows, %d pages", q.ID, got.rows, got.pages, ref.rows, ref.pages)
			}
		}
	}
	wall := time.Since(t0)
	rep.finishPhase(db, []*client{c}, wall, mem0, 0)
	if io != nil {
		rep.io = io.snapshot().sub(io0)
		rep.syncUS = io.syncUS
		if err := rep.planSample(c.conn, db, qs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// relPages reports the two relations' sizes in pages.
func relPages(db *core.Database) (h, i int, err error) {
	if h, err = db.NumPages(relH); err != nil {
		return 0, 0, err
	}
	i, err = db.NumPages(relI)
	return h, i, err
}

// planSample re-runs each retrieve of qs once, cold, through
// Conn.QueryPlan and adds the executed tree's per-operator pages and rows
// to the report. It runs after the timed phase.
func (r *report) planSample(conn *core.Conn, db *core.Database, qs []bench.Query) error {
	for _, q := range qs {
		if err := db.InvalidateBuffers(); err != nil {
			return err
		}
		if err := r.addPlan(conn, q.Text); err != nil {
			return fmt.Errorf("%s plan: %w", q.ID, err)
		}
	}
	return nil
}
