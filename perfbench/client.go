package main

import (
	"fmt"
	"time"

	"tdbms/internal/buffer"
	"tdbms/internal/core"
	"tdbms/internal/tquel"
)

// class groups statements whose latencies are reported together.
type class int

const (
	point class = iota // one key, by hash or ISAM probe
	scan               // Figure 4 single-relation scans: Q03 Q04 Q07 Q08 Q12
	join               // Figure 4 joins: Q09 Q10 Q11
	write              // one-tuple append, replace or delete
	nClasses
)

var classNames = [nClasses]string{"point", "scan", "join", "write"}

// client is one closed-loop client: it sends its next statement only after
// the last one returned. Each statement is parsed with tquel.ParseAll and
// run with core.Conn.ExecStmt; its latency covers both, including the wait
// for a durable commit.
type client struct {
	conn *core.Conn
	// tr and io are set on the traced run only. io is read per statement
	// only when solo: with two clients the wrapped calls of one database
	// cannot be attributed to a session.
	tr   *tracer
	io   *ioCounter
	solo bool

	attempted, failed int
	notes             []string
	lat               [nClasses][]float64    // µs
	stmtNS            int64                  // summed statement latency
	pages             int64                  // Result.Input + Result.Output
	outPages          int64                  // Result.Output
	temp              int64                  // Result.TempInput + TempOutput
	readRows          int64                  // rows returned by retrieves
	buf               [nClasses]buffer.Stats // session account deltas

	// Traced run only.
	parseNS int64
	selfNS  [nClasses]int64 // core.exec minus wrapped I/O inside it
}

// exec runs one statement and records it under cl. A statement that fails
// counts as failed and returns its error.
func (c *client) exec(cl class, src string) (*core.Result, error) {
	c.attempted++
	var io0 ioCounts
	if c.tr != nil && c.solo {
		io0 = c.io.snapshot()
	}
	b0 := c.conn.Stats()
	t0 := time.Now()
	stmts, err := tquel.ParseAll(src)
	t1 := time.Now()
	var res *core.Result
	if err == nil && len(stmts) != 1 {
		err = fmt.Errorf("statement source holds %d statements", len(stmts))
	}
	if err == nil {
		res, err = c.conn.ExecStmt(stmts[0])
	}
	t2 := time.Now()
	if err != nil {
		c.failf("%s: %v", src, err)
		return nil, err
	}
	d := t2.Sub(t0).Nanoseconds()
	c.lat[cl] = append(c.lat[cl], float64(d)/1e3)
	c.stmtNS += d
	c.pages += res.Input + res.Output
	c.outPages += res.Output
	c.temp += res.TempInput + res.TempOutput
	c.buf[cl] = c.buf[cl].Add(c.conn.Stats().Sub(b0))
	if len(res.Cols) > 0 {
		c.readRows += int64(len(res.Rows))
	}
	if c.tr != nil {
		c.traced(cl, io0, t0, t1, t2)
	}
	return res, nil
}

// traced records the statement's spans and its per-layer counts.
func (c *client) traced(cl class, io0 ioCounts, t0, t1, t2 time.Time) {
	id := c.tr.newID()
	root := span{id: id, name: "stmt", start: c.tr.since(t0), end: c.tr.since(t2)}
	execNS := t2.Sub(t1).Nanoseconds()
	if c.solo {
		dio := c.io.snapshot().sub(io0)
		root.ioCalls = dio.readCalls + dio.writeCalls + dio.logAppends + dio.syncs
		root.ioNS = dio.busyNS()
		c.selfNS[cl] += execNS - root.ioNS
	}
	c.tr.record(root,
		span{id: c.tr.newID(), parent: id, name: "tquel.parse", start: root.start, end: c.tr.since(t1)},
		span{id: c.tr.newID(), parent: id, name: "core.exec", start: c.tr.since(t1), end: root.end})
	c.parseNS += t1.Sub(t0).Nanoseconds()
}

// failf counts a failed statement or output check and keeps the first few
// messages for the report.
func (c *client) failf(format string, args ...any) {
	c.failed++
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// count is the number of statements completed.
func (c *client) count() int {
	n := 0
	for _, l := range c.lat {
		n += len(l)
	}
	return n
}
