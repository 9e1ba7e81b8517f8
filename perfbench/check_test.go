package main

import (
	"testing"
	"time"

	"xpathviews/internal/engine"
)

// smallSpec is a fixture small enough for a unit test.
var smallSpec = spec{name: "small", scale: 0.02, views: 30, pool: 8, zipf: true, probePairs: 1}

func smallFixture(t *testing.T) (*corpus, *fixture) {
	t.Helper()
	c, err := mine(smallSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, err := build(smallSpec, 7, c, false)
	if err != nil {
		t.Fatal(err)
	}
	return c, f
}

func TestCheckPassesOnServedAnswers(t *testing.T) {
	c, f := smallFixture(t)
	cl := newClient(f.srv.Handler())
	var acct phase
	if _, err := probeWrites(cl, newWriter(c, 7), 3, &acct); err != nil {
		t.Fatal(err)
	}
	cr, err := checkFixture(f, c.pool)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Checked != len(c.pool) || len(cr.Mismatches) != 0 {
		t.Fatalf("check after writes: %+v", cr)
	}
}

// TestCheckReportsWrongAnswer feeds the check a deliberately wrong
// expected answer for one query and requires exactly that query to be
// reported.
func TestCheckReportsWrongAnswer(t *testing.T) {
	c, f := smallFixture(t)
	cl := newClient(f.srv.Handler())
	bf := engine.NewBF(f.sys.Document())
	served := func(src string) (int, []string, error) {
		return servedCodes(cl, src)
	}
	wrong := c.pool[3]
	expect := func(src string) ([]string, error) {
		want, err := bfCodes(f.sys, bf, src)
		if src == wrong {
			want = want[1:] // drop one true answer
		}
		return want, err
	}
	cr, err := checkAnswers(c.pool, served, expect)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Mismatches) != 1 || cr.Mismatches[0].Query != wrong {
		t.Fatalf("want exactly %q reported, got %+v", wrong, cr.Mismatches)
	}
	if m := cr.Mismatches[0]; m.Got != m.Want+1 || m.Status != 200 {
		t.Fatalf("mismatch record %+v", m)
	}
}

// TestCheckCountsNon2xx requires a failed request to be reported even
// when it carries no answers to compare.
func TestCheckCountsNon2xx(t *testing.T) {
	pool := []string{"//a", "//b"}
	serve := func(src string) (int, []string, error) {
		if src == "//b" {
			return 503, nil, nil
		}
		return 200, []string{"0.1"}, nil
	}
	expect := func(src string) ([]string, error) {
		if src == "//b" {
			return nil, nil
		}
		return []string{"0.1"}, nil
	}
	cr, err := checkAnswers(pool, serve, expect)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Non2xx != 1 || len(cr.Mismatches) != 1 || cr.Mismatches[0].Query != "//b" {
		t.Fatalf("got %+v", cr)
	}
}

// TestOpenLoopThenCheck runs the open-loop read and write generators
// side by side on the small fixture, then checks every answer against BF
// on the state the last write left.
func TestOpenLoopThenCheck(t *testing.T) {
	c, f := smallFixture(t)
	bodies := make([][]byte, len(c.pool))
	for i, q := range c.pool {
		bodies[i] = queryBody(q)
	}
	or, _ := openLoop(f.srv.Handler(), bodies, newOpSeq(smallSpec, 7), newWriter(c, 7), 200, 10, 20, 500*time.Millisecond)
	if or.writeErr != nil {
		t.Fatal(or.writeErr)
	}
	if or.readAcct.Failed != 0 || or.readAcct.Sent < 50 || or.writeAcct.Sent < 3 {
		t.Fatalf("reads %+v writes %+v", or.readAcct, or.writeAcct)
	}
	cr, err := checkFixture(f, c.pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Mismatches) != 0 {
		t.Fatalf("check after open loop: %+v", cr)
	}
}
