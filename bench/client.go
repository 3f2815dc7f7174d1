package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"d2cq/internal/live"
	"d2cq/internal/storage"
	"d2cq/internal/wire"
)

// target is the client side of one transport to the system under test. The
// live workloads drive it and nothing else, so the wire and HTTP runs differ
// only in the codec between the generator and the store.
type target interface {
	// register is idempotent: repeating it returns the query's current count.
	register(name, query string) (vars []string, count int64, err error)
	submit(d *storage.Delta, sync bool) error
	read(name string, limit int) ([][]string, error)
	// watch opens a change stream on the named query and calls onNote from
	// one goroutine for every notification, until the target is closed.
	watch(name string, onNote func(live.Notification)) error
	// stats is the store's counters plus, over wire, the wire server's.
	stats() (live.Stats, wire.ServerStats, error)
	close()
}

// --- wire: one multiplexed connection --------------------------------------

type wireTarget struct {
	c      *wire.Client
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func dialWire(addr string) (*wireTarget, error) {
	c, err := wire.Dial(addr, wire.ClientOptions{})
	if err != nil {
		return nil, err
	}
	t := &wireTarget{c: c}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	return t, nil
}

func (t *wireTarget) register(name, query string) ([]string, int64, error) {
	info, err := t.c.Register(t.ctx, name, query)
	return info.Vars, info.Count, err
}

func (t *wireTarget) submit(d *storage.Delta, sync bool) error {
	_, _, err := t.c.Submit(t.ctx, d, sync)
	return err
}

func (t *wireTarget) read(name string, limit int) ([][]string, error) {
	rows, _, err := t.c.Solutions(t.ctx, name, limit)
	return rows, err
}

func (t *wireTarget) watch(name string, onNote func(live.Notification)) error {
	w, err := t.c.Watch(t.ctx, name, wire.WatchOptions{Window: 64})
	if err != nil {
		return err
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			n, ok := w.Next(t.ctx)
			if !ok {
				return
			}
			onNote(n)
		}
	}()
	return nil
}

func (t *wireTarget) stats() (live.Stats, wire.ServerStats, error) {
	raw, err := t.c.Stats(t.ctx)
	if err != nil {
		return live.Stats{}, wire.ServerStats{}, err
	}
	var doc struct {
		Wire  wire.ServerStats `json:"wire"`
		Store live.Stats       `json:"store"`
	}
	err = json.Unmarshal(raw, &doc)
	return doc.Store, doc.Wire, err
}

func (t *wireTarget) close() {
	t.cancel()
	t.c.Close()
	t.wg.Wait()
}

// --- HTTP/JSON + SSE ---------------------------------------------------------

type httpTarget struct {
	base   string
	client *http.Client
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// dialHTTP returns a target whose request traffic shares conns keep-alive
// connections; each watch holds one more for its SSE stream.
func dialHTTP(addr string, conns int) *httpTarget {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	t := &httpTarget{base: "http://" + addr, client: &http.Client{Transport: tr}}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	return t
}

// do runs one JSON request and decodes a 200 reply into `into`.
func (t *httpTarget) do(method, path string, body, into any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(t.ctx, method, t.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(raw)))
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(raw, into)
}

func (t *httpTarget) register(name, query string) ([]string, int64, error) {
	var info live.QueryInfo
	err := t.do(http.MethodPost, "/query", map[string]any{"name": name, "query": query}, &info)
	return info.Vars, info.Count, err
}

func (t *httpTarget) submit(d *storage.Delta, sync bool) error {
	path := "/update"
	if sync {
		path += "?sync=1"
	}
	return t.do(http.MethodPost, path, map[string]any{"insert": d.Insert, "delete": d.Delete}, nil)
}

func (t *httpTarget) read(name string, limit int) ([][]string, error) {
	var resp struct {
		Rows [][]string `json:"rows"`
	}
	err := t.do(http.MethodGet, fmt.Sprintf("/solutions?query=%s&limit=%d", url.QueryEscape(name), limit), nil, &resp)
	return resp.Rows, err
}

func (t *httpTarget) watch(name string, onNote func(live.Notification)) error {
	req, err := http.NewRequestWithContext(t.ctx, http.MethodGet, t.base+"/watch?query="+url.QueryEscape(name), nil)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("/watch %s: %s", name, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	// The stream opens with a snapshot event; once it is read the
	// subscription exists and every later change will be delivered.
	kind := ""
	for kind != "snapshot" && sc.Scan() {
		kind = strings.TrimPrefix(sc.Text(), "event: ")
	}
	if kind != "snapshot" {
		resp.Body.Close()
		return fmt.Errorf("/watch %s: stream ended before its snapshot", name)
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		defer resp.Body.Close()
		for sc.Scan() { // ends when close cancels the request context
			line := sc.Text()
			if ev, ok := strings.CutPrefix(line, "event: "); ok {
				kind = ev
				continue
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok || kind != "change" {
				continue
			}
			var n live.Notification
			if json.Unmarshal([]byte(data), &n) == nil {
				onNote(n)
			}
		}
	}()
	return nil
}

func (t *httpTarget) stats() (live.Stats, wire.ServerStats, error) {
	var st live.Stats
	err := t.do(http.MethodGet, "/stats", nil, &st)
	return st, wire.ServerStats{}, err
}

func (t *httpTarget) close() {
	t.cancel()
	t.wg.Wait()
	t.client.CloseIdleConnections()
}
