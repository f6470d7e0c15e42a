package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
)

// Request kinds of the query mix.
const (
	kindRecommend = iota
	kindSupport
	kindConfidence
)

var kindNames = [...]string{"recommend", "support", "confidence"}

// request is one query of the mix: its kind and the index of its
// question in the inputs' pool for that kind.
type request struct{ kind, idx int }

// stream draws a closed-loop client's requests: half POST /recommend
// with baskets drawn by Zipf rank from the held-out pool, three tenths
// GET /support, two tenths GET /confidence.
type stream struct {
	r    *rand.Rand
	zipf *rand.Zipf
}

func newStream(seed int64, id int) *stream {
	r := rand.New(rand.NewSource(seed*7919 + int64(id)))
	return &stream{r: r, zipf: rand.NewZipf(r, 1.1, 1, basketPool-1)}
}

func (s *stream) next() request {
	switch x := s.r.Intn(10); {
	case x < 5:
		return request{kindRecommend, int(s.zipf.Uint64())}
	case x < 8:
		return request{kindSupport, s.r.Intn(queryPool)}
	default:
		return request{kindConfidence, s.r.Intn(confPool)}
	}
}

// client is one closed-loop HTTP client holding one keep-alive
// connection to the server.
type client struct {
	hc   *http.Client
	base string
	in   *inputs
	k    int
	buf  bytes.Buffer
}

func newClient(addr string, in *inputs, k int) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		base: "http://" + addr,
		in:   in,
		k:    k,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// httpRequest builds the HTTP form of a request.
func (c *client) httpRequest(ctx context.Context, req request) (*http.Request, error) {
	switch req.kind {
	case kindRecommend:
		body := fmt.Sprintf(`{"observed":%s,"k":%d}`, jsonInts(c.in.baskets[req.idx]), c.k)
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/recommend", strings.NewReader(body))
		if err == nil {
			hr.Header.Set("Content-Type", "application/json")
		}
		return hr, err
	case kindSupport:
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/support?items="+csv(c.in.support[req.idx]), nil)
	default:
		q := c.in.conf[req.idx]
		return http.NewRequestWithContext(ctx, http.MethodGet,
			c.base+"/confidence?antecedent="+csv(q.ant)+"&consequent="+csv(q.cons), nil)
	}
}

// do sends one request and returns the response body, which stays
// valid until the next call. Any status but 200 is an error.
func (c *client) do(ctx context.Context, req request) ([]byte, error) {
	hr, err := c.httpRequest(ctx, req)
	if err != nil {
		return nil, err
	}
	return c.send(hr)
}

func (c *client) send(hr *http.Request) ([]byte, error) {
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", hr.Method, hr.URL.Path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}

// support asks GET /support for one itemset.
func (c *client) support(ctx context.Context, items []int) (supportJSON, error) {
	var out supportJSON
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/support?items="+csv(items), nil)
	if err != nil {
		return out, err
	}
	body, err := c.send(hr)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(body, &out)
}

// The wire forms of the answers, as the server documents them.
type supportJSON struct {
	Items    []int `json:"items"`
	Support  int   `json:"support"`
	Frequent bool  `json:"frequent"`
}

type confidenceJSON struct {
	Antecedent []int   `json:"antecedent"`
	Consequent []int   `json:"consequent"`
	Confidence float64 `json:"confidence"`
}

type ruleJSON struct {
	Antecedent        []int `json:"antecedent"`
	Consequent        []int `json:"consequent"`
	Support           int   `json:"support"`
	AntecedentSupport int   `json:"antecedentSupport"`
	ConsequentSupport int   `json:"consequentSupport"`
}

type recommendJSON struct {
	Observed []int      `json:"observed"`
	K        int        `json:"k"`
	Rules    []ruleJSON `json:"rules"`
}

// verifyAnswer checks one answer body against the checker, whose
// transactions must be those of the snapshot that answered.
func verifyAnswer(ck *checker, w *workload, in *inputs, k int, req request, body []byte) error {
	minSup := ck.minSupport(w.minSup)
	switch req.kind {
	case kindRecommend:
		var a recommendJSON
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("recommend: %v", err)
		}
		observed := in.baskets[req.idx]
		if !equal(a.Observed, observed) || a.K != k {
			return fmt.Errorf("recommend: answered for %v k=%d, asked %v k=%d", a.Observed, a.K, observed, k)
		}
		rules := make([]rule, len(a.Rules))
		for i, r := range a.Rules {
			rules[i] = rule{ant: r.Antecedent, cons: r.Consequent, support: r.Support,
				antSupport: r.AntecedentSupport, consSup: r.ConsequentSupport}
		}
		return ck.checkRecommendAnswer(observed, k, rules, w.minConf)
	case kindSupport:
		var a supportJSON
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("support: %v", err)
		}
		if !equal(a.Items, in.support[req.idx]) {
			return fmt.Errorf("support: answered for %v, asked %v", a.Items, in.support[req.idx])
		}
		return ck.checkSupportAnswer(a.Items, a.Support, a.Frequent, minSup)
	default:
		var a confidenceJSON
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("confidence: %v", err)
		}
		q := in.conf[req.idx]
		if !equal(a.Antecedent, q.ant) || !equal(a.Consequent, q.cons) {
			return fmt.Errorf("confidence: answered for %v → %v, asked %v → %v", a.Antecedent, a.Consequent, q.ant, q.cons)
		}
		return ck.checkConfidenceAnswer(q.ant, q.cons, a.Confidence)
	}
}

func csv(items []int) string {
	var b strings.Builder
	for i, x := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

func jsonInts(items []int) string { return "[" + csv(items) + "]" }
