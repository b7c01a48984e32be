package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// reply is what one query request delivered and when each part of it
// arrived. For a batch (JSON) request, meta, first and done are all
// the moment the document was decoded.
type reply struct {
	sent  time.Time
	meta  time.Time
	first time.Time // zero when no answer arrived
	done  time.Time // zero when the stream ended without a done event

	status   int
	metaEv   serve.Meta
	answers  []serve.Answer
	summary  serve.Summary
	errEvent string
	hungUp   bool
}

// failure names what went wrong with a reply, or "" when nothing did.
// A deliberate hang-up is not a failure.
func (r *reply) failure() string {
	switch {
	case r.status != http.StatusOK:
		return fmt.Sprintf("status %d", r.status)
	case r.errEvent != "":
		return "error event: " + r.errEvent
	case r.summary.Error != "":
		return "error done: " + r.summary.Error
	case r.hungUp:
		if r.first.IsZero() {
			return "stream ended before the first answer"
		}
		return ""
	case r.done.IsZero():
		return "stream ended without a done event"
	}
	return ""
}

// readSSE reads Server-Sent Events from r and calls on for each
// complete event; it stops when on returns false or the stream ends.
// Comment lines, id: and retry: fields dispatch nothing.
func readSSE(r io.Reader, on func(name string, data []byte) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var name string
	var data bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if name != "" || data.Len() > 0 {
				if !on(name, data.Bytes()) {
					return nil
				}
			}
			name = ""
			data.Reset()
			continue
		}
		field, val, _ := strings.Cut(line, ":")
		val = strings.TrimPrefix(val, " ")
		switch field {
		case "event":
			name = val
		case "data":
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(val)
		}
	}
	return sc.Err()
}

// consumeStream reads one query's SSE stream into rep, stamping each
// event with now() when it has been read whole. With hangUp it stops
// right after the first answer event, as an anytime consumer does.
func consumeStream(r io.Reader, now func() time.Time, hangUp bool, rep *reply) error {
	var decodeErr error
	err := readSSE(r, func(name string, data []byte) bool {
		switch name {
		case "meta":
			rep.meta = now()
			decodeErr = json.Unmarshal(data, &rep.metaEv)
		case "answer":
			var a serve.Answer
			if decodeErr = json.Unmarshal(data, &a); decodeErr != nil {
				return false
			}
			if rep.first.IsZero() {
				rep.first = now()
			}
			rep.answers = append(rep.answers, a)
			if hangUp {
				rep.hungUp = true
				return false
			}
		case "error":
			var e struct {
				Error string `json:"error"`
			}
			_ = json.Unmarshal(data, &e) // an undecodable error event still counts as one
			rep.errEvent = e.Error
			if rep.errEvent == "" {
				rep.errEvent = string(data)
			}
		case "done":
			rep.done = now()
			decodeErr = json.Unmarshal(data, &rep.summary)
			return false
		}
		return decodeErr == nil
	})
	if decodeErr != nil {
		return decodeErr
	}
	return err
}

// client talks to one daemon.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// stream sends one query as an SSE request.
func (c *client) stream(ctx context.Context, body []byte, hangUp bool) (*reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	rep := &reply{sent: time.Now()}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rep.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // the status is the failure
		return rep, nil
	}
	return rep, consumeStream(resp.Body, time.Now, hangUp, rep)
}

// streamReader opens an SSE request and returns its body unread.
func (c *client) streamReader(ctx context.Context, body []byte) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return resp.Body, nil
}

// batch sends one query as an Accept: application/json request.
func (c *client) batch(ctx context.Context, body []byte) (*reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json")
	rep := &reply{sent: time.Now()}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rep.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // the status is the failure
		return rep, nil
	}
	var doc struct {
		Meta    serve.Meta     `json:"meta"`
		Answers []serve.Answer `json:"answers"`
		Summary serve.Summary  `json:"summary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	now := time.Now()
	rep.meta, rep.first, rep.done = now, now, now
	rep.metaEv, rep.answers, rep.summary = doc.Meta, doc.Answers, doc.Summary
	return rep, nil
}

// getJSON fetches one GET endpoint into v.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metricsDoc is GET /metrics.
type metricsDoc struct {
	Engine obs.Snapshot      `json:"engine"`
	Serve  obs.ServeSnapshot `json:"serve"`
}

func (m metricsDoc) sub(base metricsDoc) metricsDoc {
	return metricsDoc{Engine: m.Engine.Sub(base.Engine), Serve: m.Serve.Sub(base.Serve)}
}

// traceDoc is GET /v1/query/{id}/trace.
type traceDoc struct {
	ID      string          `json:"id"`
	Summary serve.Summary   `json:"summary"`
	Trace   *obs.QueryTrace `json:"trace"`
}
