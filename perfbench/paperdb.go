package main

import (
	"fmt"
	"math/rand"

	"tdbms/internal/bench"
	"tdbms/internal/core"
	"tdbms/internal/temporal"
	"tdbms/internal/tuple"
)

// The Section 5 benchmark database: two temporal relations, temporal_h
// hashed on id and temporal_i ISAM on id, at 100% loading. internal/bench
// builds it only with default options at 10x, so the generator is
// reproduced here to open the same database under the options each
// workload needs (disk, WAL, the traced run's wrappers). The pinned
// per-query rows and pages below prove the reproduction is exact.

const (
	// paperSeed is internal/bench's generator seed: the data, not the
	// workload, so it never varies with --seed.
	paperSeed = 31
	// paperTuples is the paper's relation cardinality (1x).
	paperTuples = 1024
	relH        = "temporal_h"
	relI        = "temporal_i"
)

var (
	initEnd  = temporal.Date(1980, 2, 15, 0, 0, 0)
	loadTime = temporal.Date(1980, 3, 1, 0, 0, 0)
)

// pin is one query's expected result size and input pages, cold.
type pin struct {
	rows  int
	pages int64
}

// pins10 holds the Figure 4 suite's expected rows and pages on the
// temporal 100% database at 10x after two uniform update rounds: the
// values of BENCH_vector.json. One pass reads 404,897 pages.
var pins10 = map[string]pin{
	"Q01": {3, 5}, "Q02": {3, 7}, "Q03": {80, 6405}, "Q04": {73, 6400},
	"Q05": {1, 5}, "Q06": {1, 7}, "Q07": {1, 6405}, "Q08": {1, 6400},
	"Q09": {102, 57783}, "Q10": {102, 78268}, "Q11": {741, 236805}, "Q12": {3, 6407},
}

// paperRows draws relation relIdx's rows at cardinality n from the
// benchmark generator's stream.
func paperRows(relIdx int64, n int) [][]tuple.Value {
	rng := rand.New(rand.NewSource(paperSeed + relIdx))
	amt := make([]int64, n)
	for i := range amt {
		amt[i] = int64(i) * 100
	}
	rng.Shuffle(n, func(i, j int) { amt[i], amt[j] = amt[j], amt[i] })
	times := make([]temporal.Time, n)
	span := int64(initEnd - bench.Epoch)
	for i := range times {
		times[i] = bench.Epoch + temporal.Time(rng.Int63n(span))
	}
	rows := make([][]tuple.Value, n)
	for i := range rows {
		s := make([]byte, 96)
		for k := range s {
			s[k] = byte('a' + rng.Intn(26))
		}
		rows[i] = []tuple.Value{
			tuple.IntValue(int64(i + 1)),
			tuple.IntValue(amt[i]),
			tuple.IntValue(0),
			tuple.StrValue(string(s)),
			tuple.TemporalValue(int64(times[i])),
			tuple.TemporalValue(int64(temporal.Forever)),
			tuple.TemporalValue(int64(times[i])),
			tuple.TemporalValue(int64(temporal.Forever)),
		}
	}
	return rows
}

// buildPaperDB opens a database under opts and fills it with the temporal
// 100% benchmark database at n tuples per relation, evolved through uc
// uniform update rounds. Range variables h and i are bound on the default
// session.
func buildPaperDB(opts core.Options, n, uc int) (*core.Database, error) {
	opts.Now = loadTime
	db, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	if err := loadPaperDB(db, n, uc); err != nil {
		_ = db.Close() // the load error wins
		return nil, err
	}
	return db, nil
}

func loadPaperDB(db *core.Database, n, uc int) error {
	for _, rel := range []string{relH, relI} {
		if _, err := db.Exec(fmt.Sprintf("create persistent interval %s (id = i4, amount = i4, seq = i4, string = c96)", rel)); err != nil {
			return err
		}
	}
	for relIdx, rel := range []string{relH, relI} {
		if _, err := db.Load(rel, paperRows(int64(relIdx), n)); err != nil {
			return err
		}
	}
	if _, err := db.Exec(fmt.Sprintf(`modify %s to hash on id where fillfactor = 100
		modify %s to isam on id where fillfactor = 100
		range of h is %s
		range of i is %s`, relH, relI, relH, relI)); err != nil {
		return err
	}
	for k := 0; k < uc; k++ {
		db.Clock().Advance(3600)
		if _, err := db.Exec("replace h (seq = h.seq + 1)\n\nreplace i (seq = i.seq + 1)"); err != nil {
			return fmt.Errorf("update round %d: %w", k+1, err)
		}
		db.Clock().Advance(60)
	}
	return nil
}
