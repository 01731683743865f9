package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"tdbms/internal/core"
	"tdbms/internal/page"
	"tdbms/internal/plan"
)

const pageBytes = float64(page.Size)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run, identical in name and unit
// to BENCHMARK.json's end_to_end list. Every workload reports every one.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"stmts_per_s", "1/s"},
	{"fetches_per_stmt", "pages"},
	{"point_p50_us", "us"},
	{"point_p90_us", "us"},
	{"other_p50_us", "us"},
	{"other_p90_us", "us"},
	{"bytes_written_per_stmt", "B"},
}

// planOps are the operators whose per-node pages and rows the traced run
// reports; they are the ones the workloads' plans contain.
var planOps = []plan.Op{
	plan.OpProbe, plan.OpSeqScan, plan.OpRangeScan, plan.OpMaterialize,
	plan.OpTempScan, plan.OpSubstProbe, plan.OpNestLoop, plan.OpFilter, plan.OpProject,
}

// perLayer are the metrics of the traced run, identical in name and unit
// to BENCHMARK.json's per_layer list. A metric that does not apply to a
// workload (no writes, no recovery) reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"tquel.parse_us_per_stmt", "us"},
		{"core.self_us.point", "us"},
		{"core.self_us.scan", "us"},
		{"core.self_us.join", "us"},
		{"core.self_us.write", "us"},
		{"core.fetches_per_row", "count"},
		{"exec.temp_pages_per_stmt", "pages"},
	}
	for _, op := range planOps {
		defs = append(defs, metricDef{"exec.pages." + op.String(), "pages"}, metricDef{"exec.rows." + op.String(), "count"})
	}
	return append(defs,
		metricDef{"am.fetches_per_point_read", "count"},
		metricDef{"am.fetches_per_write", "count"},
		metricDef{"buffer.misses_per_stmt", "count"},
		metricDef{"buffer.hits_per_stmt", "count"},
		metricDef{"buffer.hit_ratio", "ratio"},
		metricDef{"buffer.writebacks_per_stmt", "count"},
		metricDef{"storage.reads_per_stmt", "pages"},
		metricDef{"storage.writes_per_stmt", "pages"},
		metricDef{"storage.read_ns_per_page", "ns"},
		metricDef{"storage.write_ns_per_page", "ns"},
		metricDef{"storage.busy_share", "ratio"},
		metricDef{"wal.appends_per_write", "count"},
		metricDef{"wal.syncs_per_write", "count"},
		metricDef{"wal.commits_per_sync", "count"},
		metricDef{"wal.sync_us_p50", "us"},
		metricDef{"wal.sync_share", "ratio"},
		metricDef{"recovery.open_ms", "ms"},
		metricDef{"recovery.log_mb", "MB"},
		metricDef{"recovery.log_read_mb", "MB"},
		metricDef{"recovery.page_writes", "pages"},
		metricDef{"recovery.ms_per_log_mb", "ms"},
		metricDef{"runtime.allocs_per_stmt", "count"},
		metricDef{"runtime.alloc_bytes_per_stmt", "B"},
		metricDef{"trace.stmts_per_s", "1/s"},
	)
}()

// report collects one run's results.
type report struct {
	tr                *tracer // nil on the end-to-end run
	attempted, failed int
	e2e, layer        map[string]float64
	notes             []string

	// Traced run: wrapped I/O during the timed phase, each Sync's
	// duration, and the plan sample.
	io        ioCounts
	syncUS    []float64
	planPages map[plan.Op]int64
	planRows  map[plan.Op]int64
	plans     int
	// Bases for the I/O ratios, set by finishPhase.
	stmtNS        int64
	stmts, writes float64
}

func newReport(cfg config, setups []float64) *report {
	r := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	r.e2e["setup_s"] = quantile(setups, 0.5)
	r.notef("setup_s runs: %s", fmtList(setups, "%.4f"))
	return r
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// memSnap is the allocation counters at a phase boundary.
type memSnap struct{ mallocs, bytes uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.Mallocs, m.TotalAlloc}
}

// finishPhase folds the clients of a finished timed phase into the
// report: heap after a forced GC (db kept live), throughput, latencies,
// pages, bytes written (page write-backs plus logBytes of WAL), and on the
// traced run the per-layer counts.
func (r *report) finishPhase(db *core.Database, clients []*client, wall time.Duration, mem0 memSnap, logBytes int64) {
	mem1 := readMem()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(db)
	// The benchmark's own latency samples grow with throughput; they are
	// not the engine's heap.
	var samples uint64
	for _, c := range clients {
		for _, l := range c.lat {
			samples += uint64(cap(l)) * 8
		}
	}
	r.e2e["heap_mb"] = float64(ms.HeapAlloc-samples) / (1 << 20)

	var (
		lat                         [nClasses][]float64
		stmts                       int
		pages, temp, stmtNS, parse  int64
		outPages                    int64
		self                        [nClasses]int64
		hits, misses, wbs, readRows int64
		retrFetch                   int64
		byClass                     [nClasses]int64
	)
	for _, c := range clients {
		r.attempted += c.attempted
		r.failed += c.failed
		r.notes = append(r.notes, c.notes...)
		stmts += c.count()
		pages += c.pages
		outPages += c.outPages
		temp += c.temp
		stmtNS += c.stmtNS
		parse += c.parseNS
		readRows += c.readRows
		for cl := class(0); cl < nClasses; cl++ {
			lat[cl] = append(lat[cl], c.lat[cl]...)
			self[cl] += c.selfNS[cl]
			b := c.buf[cl]
			hits += b.Hits
			misses += b.Reads
			wbs += b.Writes
			byClass[cl] += b.Hits + b.Reads
			if cl != write {
				retrFetch += b.Hits + b.Reads
			}
		}
	}
	n := float64(stmts)
	r.e2e["stmts_per_s"] = n / wall.Seconds()
	r.e2e["fetches_per_stmt"] = float64(hits+misses) / n
	r.e2e["bytes_written_per_stmt"] = (float64(outPages)*pageBytes + float64(logBytes)) / n
	r.notef("pages_per_stmt %.4f (input + output pages, the paper's metric)", float64(pages)/n)
	r.e2e["point_p50_us"] = quantile(lat[point], 0.5)
	r.e2e["point_p90_us"] = quantile(lat[point], 0.9)
	var other []float64
	for _, cl := range []class{scan, join, write} {
		other = append(other, lat[cl]...)
	}
	r.e2e["other_p50_us"] = quantile(other, 0.5)
	r.e2e["other_p90_us"] = quantile(other, 0.9)
	r.notef("timed phase: %d statements in %.3f s by %d client(s), %d failed statements or checks", stmts, wall.Seconds(), len(clients), r.failed)
	for cl := class(0); cl < nClasses; cl++ {
		if len(lat[cl]) > 0 {
			r.notef("  %-5s n=%-7d p50=%.1f us p90=%.1f us", classNames[cl], len(lat[cl]), quantile(lat[cl], 0.5), quantile(lat[cl], 0.9))
		}
	}
	r.stmtNS, r.stmts = stmtNS, n
	nw := float64(len(lat[write]))
	r.writes = nw
	if nw > 0 {
		r.notef("log_bytes_per_write %.4f", float64(logBytes)/nw)
	}
	if r.tr == nil {
		return
	}
	L := r.layer
	L["trace.stmts_per_s"] = r.e2e["stmts_per_s"]
	L["tquel.parse_us_per_stmt"] = float64(parse) / 1e3 / n
	if len(clients) == 1 {
		for cl := class(0); cl < nClasses; cl++ {
			L["core.self_us."+classNames[cl]] = div(float64(self[cl])/1e3, float64(len(lat[cl])))
		}
	}
	L["core.fetches_per_row"] = div(float64(retrFetch), float64(readRows))
	L["exec.temp_pages_per_stmt"] = float64(temp) / n
	L["am.fetches_per_point_read"] = div(float64(byClass[point]), float64(len(lat[point])))
	L["am.fetches_per_write"] = div(float64(byClass[write]), nw)
	L["buffer.misses_per_stmt"] = float64(misses) / n
	L["buffer.hits_per_stmt"] = float64(hits) / n
	L["buffer.hit_ratio"] = div(float64(hits), float64(hits+misses))
	L["buffer.writebacks_per_stmt"] = float64(wbs) / n
	L["runtime.allocs_per_stmt"] = float64(mem1.mallocs-mem0.mallocs) / n
	L["runtime.alloc_bytes_per_stmt"] = float64(mem1.bytes-mem0.bytes) / n
}

// addPlan runs one retrieve through Conn.QueryPlan and adds its executed
// tree's per-operator pages (reads + writes) and rows.
func (r *report) addPlan(conn *core.Conn, src string) error {
	_, t, err := conn.QueryPlan(src)
	if err != nil {
		return err
	}
	if r.planPages == nil {
		r.planPages, r.planRows = map[plan.Op]int64{}, map[plan.Op]int64{}
	}
	t.Walk(func(n *plan.Node) {
		r.planPages[n.Op] += n.IO.Reads + n.IO.Writes
		r.planRows[n.Op] += n.ActRows
	})
	r.plans++
	return nil
}

// ioLayer derives the storage, WAL and plan metrics of the traced run.
func (r *report) ioLayer() {
	L, io := r.layer, r.io
	L["storage.reads_per_stmt"] = div(float64(io.readPages), r.stmts)
	L["storage.writes_per_stmt"] = div(float64(io.writePages), r.stmts)
	L["storage.read_ns_per_page"] = div(float64(io.readNS), float64(io.readPages))
	L["storage.write_ns_per_page"] = div(float64(io.writeNS), float64(io.writePages))
	L["storage.busy_share"] = div(float64(io.readNS+io.writeNS), float64(r.stmtNS))
	L["wal.appends_per_write"] = div(float64(io.logAppends), r.writes)
	L["wal.syncs_per_write"] = div(float64(io.syncs), r.writes)
	L["wal.commits_per_sync"] = div(r.writes, float64(io.syncs))
	L["wal.sync_us_p50"] = quantile(r.syncUS, 0.5)
	L["wal.sync_share"] = div(float64(io.syncNS), float64(r.stmtNS))
	for _, op := range planOps {
		L["exec.pages."+op.String()] = div(float64(r.planPages[op]), float64(r.plans))
		L["exec.rows."+op.String()] = div(float64(r.planRows[op]), float64(r.plans))
	}
	if len(r.planPages) > 0 {
		r.notef("plan sample: %d retrieves", r.plans)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome builds the result line: the end-to-end metrics, or on the
// traced run the per-layer ones.
func (r *report) outcome() (*outcome, error) {
	r.notef("failed_fraction %g", div(float64(r.failed), float64(r.attempted)))
	out := &outcome{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if r.attempted < 1 {
		return nil, fmt.Errorf("no statement was attempted")
	}
	if r.tr == nil {
		for _, d := range endToEnd {
			v, ok := r.e2e[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("metric %s was not measured", d.name)
			}
			out.Metrics[d.name] = metric{v, d.unit}
		}
		return out, nil
	}
	r.ioLayer()
	for _, d := range perLayer {
		v := r.layer[d.name]
		if math.IsNaN(v) {
			v = 0 // a quantile of no samples: the layer did no such work
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	return out, nil
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// div is a/b, or 0 when b is 0 (a ratio whose base did not occur).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fmtList(xs []float64, f string) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf(f, x)
	}
	return s
}
