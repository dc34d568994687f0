package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// httpError is a non-2xx reply. Sheds (429/503) are failures like any
// other non-2xx status.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %.200s", e.status, e.body) }

// wrongOutput marks a reply whose content disagrees with the reference.
type wrongOutput struct{ err error }

func (e *wrongOutput) Error() string { return "wrong output: " + e.err.Error() }
func (e *wrongOutput) Unwrap() error { return e.err }

// client is one closed-loop caller with its own connection. It counts
// what an operation cost on the wire: requests, response bytes, and
// the client-observed time of each request.
type client struct {
	base   string
	hc     *http.Client
	rf     *reference
	kept   *[]coldBody // when set, sync replies are digested here instead of checked
	reqs   int
	bytes  int64
	reqDur time.Duration
}

func newClient(base string, rf *reference) *client {
	return &client{
		base: base,
		rf:   rf,
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx reply.
func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.reqDur += time.Since(start)
	c.reqs++
	c.bytes += int64(len(out))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, &httpError{status: resp.StatusCode, body: string(out)}
	}
	return out, nil
}

// run performs one operation: one synchronous request, or one whole
// job round. The reply is checked against the reference (or, for cold
// requests, recorded to be checked after the window).
func (c *client) run(ctx context.Context, req *request) error {
	if req.kind == kindJob {
		return c.jobRound(ctx, req)
	}
	body, err := c.do(ctx, http.MethodPost, req.path, req.body)
	if err != nil {
		return err
	}
	if c.kept != nil {
		*c.kept = append(*c.kept, coldBody{req: req, got: digestOf(body)})
		return nil
	}
	if err := c.rf.checkSync(req, body); err != nil {
		return &wrongOutput{err}
	}
	return nil
}

type jobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

func terminal(state string) bool {
	return state == "succeeded" || state == "failed" || state == "cancelled"
}

// Poll back-off of a job round: the first poll goes out at once, then
// the wait doubles from pollFirst up to pollMax.
const (
	pollFirst = 250 * time.Microsecond
	pollMax   = 8 * time.Millisecond
)

// jobRound submits a job, polls it to a terminal state and reads every
// results page at the default page size, checking each page.
func (c *client) jobRound(ctx context.Context, req *request) error {
	jc, err := c.rf.newJobCheck(req)
	if err != nil {
		return err
	}
	raw, err := c.do(ctx, http.MethodPost, req.path, req.body)
	if err != nil {
		return err
	}
	var job jobView
	if err := json.Unmarshal(raw, &job); err != nil || job.ID == "" {
		return &wrongOutput{fmt.Errorf("submit reply %.200s", raw)}
	}
	wait := pollFirst
	for !terminal(job.State) {
		raw, err = c.do(ctx, http.MethodGet, "/v2/jobs/"+job.ID, nil)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &job); err != nil {
			return &wrongOutput{fmt.Errorf("job reply %.200s", raw)}
		}
		if terminal(job.State) {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
		if wait *= 2; wait > pollMax {
			wait = pollMax
		}
	}
	cursor := "0"
	for {
		raw, err = c.do(ctx, http.MethodGet, "/v2/jobs/"+job.ID+"/results?cursor="+cursor, nil)
		if err != nil {
			return err
		}
		head, err := jc.page(job.ID, raw)
		if err != nil {
			return &wrongOutput{err}
		}
		if head.Done {
			if err := jc.done(head.State); err != nil {
				return &wrongOutput{err}
			}
			return nil
		}
		if head.NextCursor == cursor {
			return &wrongOutput{fmt.Errorf("results cursor stuck at %s", cursor)}
		}
		cursor = head.NextCursor
	}
}
