package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"tdbms/internal/core"
)

// sharedClients is shared-warm's session count: enough for reads beside
// writes and for two committers to share a sync.
const sharedClients = 2

// asOfSetup is the instant the disk base is loaded at; every version
// current then has seq 0, and no write of the timed phase is visible as
// of it.
const asOfSetup = `"00:00 3/1/80"`

// runShared is shared-warm: the 1x disk database with the WAL and two
// sessions at once, each with a pool that holds both relations. Each
// session runs its seeded loop of point reads and as-of reads by key on
// the hashed relation with a one-tuple replace every fourth statement,
// alternating the hashed and the ISAM relation; conflict retry is on, and
// the two sessions' commits share group commit. The phase runs in epochs
// (see diskPhase) of sharedStmts statements per session; after each, the
// acknowledged replaces are checked against the relations.
func runShared(cfg config) (*report, error) {
	base := filepath.Join(cfg.work, "base")
	var setups []float64
	for r := 0; r < cfg.setupReps; r++ {
		t0 := time.Now()
		if err := buildDiskBase(base); err != nil {
			return nil, err
		}
		db, err := openDisk(base, nil)
		if err != nil {
			return nil, err
		}
		if _, err := warmSessions(db, cfg.frames); err != nil {
			_ = db.Close() // the warm-up error wins
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := db.Close(); err != nil {
			return nil, err
		}
	}
	rep := newReport(cfg, setups)
	var io *ioCounter
	if cfg.trace {
		io = &ioCounter{}
	}
	ph := newDiskPhase(cfg, base, io)
	clients := make([]*client, sharedClients)
	rngs := make([]*rand.Rand, sharedClients)
	for k := range clients {
		clients[k] = &client{tr: rep.tr, io: io}
		rngs[k] = rand.New(rand.NewSource(cfg.seed*sharedClients + int64(k)))
	}
	var pages0, pages1 [2]int
	mem0 := readMem()
	for ph.wall < cfg.dur {
		err := ph.epoch(func(db *core.Database) error {
			conns, err := warmSessions(db, cfg.frames)
			if err != nil {
				return err
			}
			if pages0[0], pages0[1], err = relPages(db); err != nil {
				return err
			}
			acked := make([]keyModel, sharedClients)
			err = ph.timed(func() {
				var wg sync.WaitGroup
				for k, c := range clients {
					c.conn = conns[k]
					acked[k] = keyModel{{}, {}}
					wg.Add(1)
					go func(c *client, acked keyModel, rng *rand.Rand) {
						defer wg.Done()
						sharedLoop(db, c, acked, rng, cfg.sharedStmts)
					}(c, acked[k], rngs[k])
				}
				wg.Wait()
			})
			if err != nil {
				return err
			}
			checkModel(rep, db, lostUpdateModel(acked, cfg.dropAck), "lost updates")
			if ph.wall < cfg.dur {
				return nil
			}
			if pages1[0], pages1[1], err = relPages(db); err != nil {
				return err
			}
			rep.finishPhase(db, clients, ph.wall, mem0, ph.logBytes)
			if io == nil {
				return nil
			}
			for _, asOf := range []bool{false, true} {
				if err := rep.addPlan(conns[0], sharedRead(1, asOf)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	rep.io, rep.syncUS = ph.ioSum, ph.syncUS
	rep.notef("sizes: %d tuples per relation at start; over each epoch of %d statements per session %s grows %d->%d pages, %s %d->%d; %d epochs; pool %d frames per relation; disk; WAL sync on commit, group commit",
		paperTuples, cfg.sharedStmts, relH, pages0[0], pages1[0], relI, pages0[1], pages1[1], ph.epochs, cfg.frames)
	return rep, nil
}

// warmSessions opens shared-warm's sessions on db — h and i bound, a
// pool of frames per relation, conflict retry on — and fills the pools
// with one scan of each relation.
func warmSessions(db *core.Database, frames int) ([]*core.Conn, error) {
	conns := make([]*core.Conn, sharedClients)
	for k := range conns {
		c := db.NewSession("")
		if _, err := c.Exec(fmt.Sprintf("range of h is %s\nrange of i is %s", relH, relI)); err != nil {
			return nil, err
		}
		c.SetBufferPolicy(frames, 0)
		c.SetConflictRetry(true)
		conns[k] = c
	}
	_, err := conns[0].Exec("retrieve (h.id, h.seq)\n\nretrieve (i.id, i.seq)")
	return conns, err
}

// sharedRead reads key's current version or, asOf, the version current at
// set-up, before any write of the timed phase.
func sharedRead(key int64, asOf bool) string {
	if asOf {
		return fmt.Sprintf(`retrieve (h.id, h.seq) where h.id = %d as of %s`, key, asOfSetup)
	}
	return fmt.Sprintf(`retrieve (h.id, h.seq) where h.id = %d when h overlap "now"`, key)
}

// sharedLoop is one shared-warm session's epoch: n statements, repeating
// a current read, an as-of read, a current read and a replace, each on a
// key drawn from rng; replaces alternate the hashed and the ISAM relation.
// Every read must find exactly its key, the as-of read with its set-up
// seq, 0. acked counts the replaces acknowledged per relation and key.
func sharedLoop(db *core.Database, c *client, acked keyModel, rng *rand.Rand, n int) {
	for k := 0; k < n; k++ {
		key := 1 + rng.Int63n(paperTuples)
		if k%4 == 3 {
			r := (k / 4) % 2
			v := relVar[r]
			db.Clock().Advance(1)
			if _, err := c.exec(write, fmt.Sprintf(`replace %s (seq = %s.seq + 1) where %s.id = %d`, v, v, v, key)); err == nil {
				acked[r][key]++
			}
			continue
		}
		asOf := k%4 == 1
		res, err := c.exec(point, sharedRead(key, asOf))
		if err != nil {
			continue
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I != key || (asOf && res.Rows[0][1].I != 0) {
			c.failf("read of key %d (as of set-up %v): %v", key, asOf, res.Rows)
		}
	}
}

// lostUpdateModel is the model after an epoch: every key of the base with
// seq 0 plus the replaces acknowledged on it across the sessions. With
// drop, it forgets one acknowledged replace, so the check must fail.
func lostUpdateModel(acked []keyModel, drop bool) keyModel {
	m := baseModel(paperTuples)
	for _, a := range acked {
		for r := range a {
			for k, n := range a[r] {
				m[r][k] += n
			}
		}
	}
	if drop {
		for _, a := range acked {
			for r := range a {
				for k := range a[r] {
					m[r][k]--
					return m
				}
			}
		}
	}
	return m
}
