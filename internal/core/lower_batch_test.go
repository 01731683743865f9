package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// TestBatchDetachMatchesTuple runs detaching joins — the plans whose
// variables are rebound to their temporaries mid-query, so the batch
// binders must pick up the swapped binding — through the tuple executor
// and the batch executor at several capacities, and requires identical
// rows and identical page counts.
func TestBatchDetachMatchesTuple(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create persistent interval h (id = i4, amount = i4)
	                 create persistent interval i (id = i4, amount = i4)`)
	for k := 1; k <= 200; k++ {
		mustExec(t, db, fmt.Sprintf(`append to h (id = %d, amount = %d)
		                             append to i (id = %d, amount = %d)`, k, k*100, k, k*100))
	}
	mustExec(t, db, `modify h to hash on id where fillfactor = 100
	                 modify i to isam on id where fillfactor = 100
	                 range of h is h
	                 range of i is i
	                 replace h (amount = h.amount + 1) where h.id < 60
	                 replace i (amount = i.amount + 1) where i.id > 150`)

	queries := []struct{ query, plan string }{
		{`retrieve (h.id, i.id, i.amount) where h.id = i.id and i.amount <= 9000`, "detach i"},
		{`retrieve (h.id, h.amount, i.id) where h.amount <= 9000 and i.amount <= 6000 when h overlap i`,
			"detach h into temporary"},
	}
	for _, q := range queries {
		plan, err := db.Explain(q.query)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, q.plan) {
			t.Fatalf("Explain(%s) lacks %q; the test needs a detaching plan:\n%s", q.query, q.plan, plan)
		}
		run := func(bsize int) (rows []string, in, out int64) {
			s := db.NewSession("")
			s.SetBatchSize(bsize)
			for _, rng := range []string{`range of h is h`, `range of i is i`} {
				if _, err := s.Exec(rng); err != nil {
					t.Fatal(err)
				}
			}
			res, err := s.Exec(q.query)
			if err != nil {
				t.Fatalf("batch size %d: %s: %v", bsize, q.query, err)
			}
			for _, r := range res.Rows {
				rows = append(rows, fmt.Sprint(r))
			}
			sort.Strings(rows)
			return rows, res.Input, res.Output
		}
		wantRows, wantIn, wantOut := run(-1)
		if len(wantRows) == 0 {
			t.Fatalf("%s: no rows; the test would compare nothing", q.query)
		}
		for _, bsize := range []int{1, 7, 0} {
			rows, in, out := run(bsize)
			if in != wantIn || out != wantOut {
				t.Errorf("%s: batch size %d read/wrote %d/%d pages, tuple executor %d/%d",
					q.query, bsize, in, out, wantIn, wantOut)
			}
			if strings.Join(rows, "\n") != strings.Join(wantRows, "\n") {
				t.Errorf("%s: batch size %d returned %d rows differing from the tuple executor's %d",
					q.query, bsize, len(rows), len(wantRows))
			}
		}
	}
}
