package main

// The answer check: every distinct pool query is served once more after
// the load, and its answer codes are compared with direct BF evaluation
// on the same document state.

import (
	"encoding/json"
	"fmt"
	"slices"

	"xpathviews/internal/engine"
)

// mismatch is one query whose served answers differ from the truth.
type mismatch struct {
	Query  string `json:"query"`
	Status int    `json:"status"`
	Got    int    `json:"got"`
	Want   int    `json:"want"`
}

// checkResult is what checkAnswers found.
type checkResult struct {
	Checked    int        `json:"checked"`
	Non2xx     int        `json:"non_2xx"`
	Mismatches []mismatch `json:"mismatches"`
}

// checkAnswers serves each query through serve and compares the codes
// with expect. A non-2xx response counts as a mismatch too.
func checkAnswers(pool []string, serve func(src string) (int, []string, error),
	expect func(src string) ([]string, error)) (checkResult, error) {
	var cr checkResult
	for _, src := range pool {
		want, err := expect(src)
		if err != nil {
			return cr, fmt.Errorf("check %s: %w", src, err)
		}
		status, got, err := serve(src)
		if err != nil {
			return cr, fmt.Errorf("check %s: %w", src, err)
		}
		cr.Checked++
		if !ok2xx(status) {
			cr.Non2xx++
		}
		if !ok2xx(status) || !slices.Equal(got, want) {
			cr.Mismatches = append(cr.Mismatches, mismatch{Query: src, Status: status, Got: len(got), Want: len(want)})
		}
	}
	return cr, nil
}

// servedCodes serves src once and returns its status and answer codes.
func servedCodes(c *client, src string) (int, []string, error) {
	status, body, _ := c.do("/v1/query", queryBody(src))
	var qr queryResp
	if err := json.Unmarshal(body, &qr); err != nil {
		return status, nil, fmt.Errorf("query response: %w", err)
	}
	return status, qr.Answers, nil
}

// checkFixture runs checkAnswers over the served tenant, with BF on its
// current document as the truth. Call it only once load has stopped.
func checkFixture(f *fixture, pool []string) (checkResult, error) {
	c := newClient(f.srv.Handler())
	bf := engine.NewBF(f.sys.Document())
	serve := func(src string) (int, []string, error) { return servedCodes(c, src) }
	expect := func(src string) ([]string, error) { return bfCodes(f.sys, bf, src) }
	return checkAnswers(pool, serve, expect)
}
