package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"optspeed/internal/sweep"
	"optspeed/internal/telemetry"
	"optspeed/internal/wire"
)

// requestIDHeader names the request-id header the service's middleware
// reads and echoes; forwarding it makes coordinator and peer log lines
// joinable on one id.
const requestIDHeader = "X-Request-ID"

// streamPath is the peer endpoint one shard is evaluated through: the
// v2 NDJSON stream delivers results as the peer computes them, so a
// dying peer costs only its undelivered suffix.
const streamPath = "/v2/sweeps/stream"

// maxLineBytes bounds one NDJSON line from a peer. A result line is a
// few hundred bytes; a megabyte means the peer is broken.
const maxLineBytes = 1 << 20

// maxDrainBytes and drainTimeout bound what fetchShard reads after a
// shard's done line to hand the connection back to the pool.
const (
	maxDrainBytes = 64 << 10
	drainTimeout  = 250 * time.Millisecond
)

// shardBody mirrors the service's SweepRequest wire shape.
type shardBody struct {
	Specs []sweep.Spec `json:"specs,omitempty"`
	Space *sweep.Space `json:"space,omitempty"`
}

// fetchShard streams one shard from a peer into the accumulator. It
// returns nil only for a complete delivery: a 200 response, a
// well-formed NDJSON stream ending in a done line, and full index
// coverage (counting results earlier attempts already delivered).
// Everything else — transport failure, non-200, malformed lines,
// out-of-range indices, a stream that ends early, a done line with
// gaps — is an error, and whatever valid results arrived first stay
// accepted for the next attempt to top up.
func (d *Dispatcher) fetchShard(ctx context.Context, peer *peerState, sh shard, acc *shardAccumulator) error {
	ctx, cancel := context.WithTimeout(ctx, d.shardTimeout)
	defer cancel()

	payload, err := json.Marshal(shardBody{Specs: sh.specs, Space: sh.space})
	if err != nil {
		return fmt.Errorf("dispatch: encode shard: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer.url+streamPath, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("dispatch: build shard request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	// Shard gathering wants wire throughput, not per-result latency:
	// ask the peer to let net/http coalesce lines into full frames
	// instead of flushing per chunk.
	req.Header.Set("X-Stream-Flush", "batch")
	// Propagate the attempt's deadline (the parent request's, capped by
	// the shard timeout) so the peer stops evaluating the moment the
	// coordinator would discard its results anyway.
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set("X-Request-Deadline", dl.UTC().Format(time.RFC3339Nano))
	}
	// Forward the originating request id and trace coordinates so the
	// peer's access log and spans are joinable with the coordinator's.
	// The parent span is the shard span runShard opened, so a peer-side
	// trace view nests each remote evaluation under its shard.
	if id := telemetry.RequestIDFrom(ctx); id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	if tid := telemetry.TraceIDFrom(ctx); tid != "" {
		req.Header.Set(telemetry.TraceIDHeader, tid)
		if sid := telemetry.SpanIDFrom(ctx); sid != "" {
			req.Header.Set(telemetry.ParentSpanHeader, sid)
		}
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return fmt.Errorf("dispatch: shard post: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("dispatch: peer returned %d: %s", resp.StatusCode, bytes.TrimSpace(snippet))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	for sc.Scan() {
		var r sweep.Result
		done, err := wire.DecodeLine(sc.Bytes(), &r)
		if err != nil {
			return fmt.Errorf("dispatch: malformed stream line: %w", err)
		}
		if done {
			// Read the body to EOF (normally just the chunked
			// terminator) so net/http pools the connection rather than
			// closing it. A peer that stalls past its done line is cut
			// off after drainTimeout instead of holding the shard. A
			// failed drain costs only the connection: the done line is
			// already in.
			stop := time.AfterFunc(drainTimeout, cancel)
			_, _ = io.CopyN(io.Discard, resp.Body, maxDrainBytes)
			stop.Stop()
			if missing := acc.missing(); missing > 0 {
				return fmt.Errorf("dispatch: peer finished with %d of %d specs missing", missing, sh.size)
			}
			return nil
		}
		// Index is shard-local (the peer sees the shard as a whole
		// sweep); the accumulator holds global indices.
		local := r.Index
		if local < 0 || local >= sh.size {
			return fmt.Errorf("dispatch: shard index %d out of range [0, %d)", local, sh.size)
		}
		r.Index += sh.start
		// Duplicate deliveries are dropped here, not errored: first
		// delivery wins and progress is counted once.
		acc.accept(local, r)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dispatch: shard stream: %w", err)
	}
	return fmt.Errorf("dispatch: shard stream ended without completion marker")
}
