package exec_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/exec"
	"tdbms/internal/hashfile"
	"tdbms/internal/heapfile"
	"tdbms/internal/isam"
	"tdbms/internal/page"
	"tdbms/internal/plan"
	"tdbms/internal/storage"
)

// Block tuples alias the page their iterator fetched last, and that page
// is the buffer handle's scratch copy, overwritten by the next fetch. The
// test below pins the consequence for the batch scan: every row it hands
// out is its own copy, so rows held across any number of later batches
// and scans keep their bytes.

// lifeTuple is a tuple whose bytes are unique per (key, seq), so a row
// that aliases a later-overwritten page cannot match by accident.
func lifeTuple(key, seq int) []byte {
	tup := make([]byte, benchWidth)
	binary.LittleEndian.PutUint32(tup, uint32(key))
	binary.LittleEndian.PutUint32(tup[4:], uint32(seq))
	return tup
}

// lifeKeep accepts two of every three tuples, by sequence number, so
// accepted and rejected tuples share pages.
func lifeKeep(_ page.RID, tup []byte) (bool, error) {
	return binary.LittleEndian.Uint32(tup[4:])%3 != 0, nil
}

func lifeHeap(t *testing.T, pol buffer.Policy) *heapfile.File {
	t.Helper()
	hf := heapfile.New(buffer.NewWithPolicy("life_heap", storage.NewMem(), pol), benchWidth)
	for i := 0; i < 700; i++ {
		if _, err := hf.Insert(lifeTuple(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	return hf
}

// lifeHash builds a hash file whose chains span several pages: 8 keys
// with 150 versions each.
func lifeHash(t *testing.T) *hashfile.File {
	t.Helper()
	meta := hashfile.Meta{Width: benchWidth, Key: benchKey, Primary: 4}
	f, err := hashfile.Build(buffer.New("life_hash", storage.NewMem()), meta)
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for v := 0; v < 150; v++ {
		for k := 0; k < 8; k++ {
			if _, err := f.Insert(lifeTuple(k, seq)); err != nil {
				t.Fatal(err)
			}
			seq++
		}
	}
	return f
}

func lifeISAM(t *testing.T) *isam.File {
	t.Helper()
	tups := make([][]byte, 0, 700)
	for i := 0; i < 700; i++ {
		tups = append(tups, lifeTuple(i/4, i))
	}
	f, err := isam.Build(buffer.New("life_isam", storage.NewMem()), benchWidth, benchKey, 80, tups)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBatchScanRowsOutliveBlocks(t *testing.T) {
	heap := lifeHeap(t, buffer.DefaultPolicy())
	pooled := lifeHeap(t, buffer.Policy{Frames: 8, Readahead: 4})
	hash := lifeHash(t)
	ix := lifeISAM(t)
	sources := []struct {
		name      string
		buf       *buffer.Buffered
		readahead int
		open      func() am.Iterator
	}{
		{"heap scan", heap.Buffer(), 0, heap.Scan},
		{"heap scan, pooled readahead", pooled.Buffer(), 4, pooled.Scan},
		{"hash chain", hash.Buffer(), 0, func() am.Iterator { return hash.Probe(5) }},
		{"hash scan", hash.Buffer(), 0, hash.Scan},
		{"isam probe", ix.Buffer(), 0, func() am.Iterator { return ix.ProbeRange(20, 120) }},
		{"isam scan", ix.Buffer(), 0, ix.Scan},
	}
	for _, src := range sources {
		for _, bcap := range []int{1, exec.DefaultBatchCap} {
			t.Run(fmt.Sprintf("%s/cap%d", src.name, bcap), func(t *testing.T) {
				it := src.open()
				_, blocks := it.(am.BlockIterator)
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
				if !blocks {
					t.Fatal("source does not deliver blocks; the test would not exercise them")
				}
				att := exec.NewAttribution(statsSumT(src.buf))
				op := &exec.BatchScan{Node: &plan.Node{Op: plan.OpSeqScan}, Att: att,
					Readahead: src.readahead,
					Start:     func() (am.Iterator, error) { return src.open(), nil },
					Bind:      lifeKeep,
				}
				// Hold every row of every batch, uncopied.
				var held [][]byte
				if err := op.Open(); err != nil {
					t.Fatal(err)
				}
				b := exec.NewBatch(1, bcap)
				for {
					ok, err := op.NextBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					for _, i := range b.Sel() {
						held = append(held, b.Row(i)[0])
					}
				}
				if err := op.Close(); err != nil {
					t.Fatal(err)
				}

				// The tuple executor's scan fetches every page again,
				// overwriting the handle's scratch page many times over.
				var want [][]byte
				var rows int64
				scan := &exec.Scan{Node: &plan.Node{Op: plan.OpSeqScan}, Att: att,
					Start: func() (am.Iterator, error) { return src.open(), nil },
					Bind: func(rid page.RID, tup []byte) (bool, error) {
						pass, err := lifeKeep(rid, tup)
						if pass {
							want = append(want, tup)
						}
						return pass, err
					},
				}
				if err := exec.Run(&countRoot{op: scan, rows: &rows}); err != nil {
					t.Fatal(err)
				}
				if len(want) < 2 {
					t.Fatalf("source qualifies %d rows; too few to test", len(want))
				}
				if len(held) != len(want) {
					t.Fatalf("batch scan held %d rows, tuple scan found %d", len(held), len(want))
				}
				for i := range want {
					if !bytes.Equal(held[i], want[i]) {
						t.Fatalf("held row %d = %x, tuple scan has %x", i, held[i], want[i])
					}
				}
			})
		}
	}
}
