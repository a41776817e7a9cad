package main

// HTTP clients and the output check: every instantiate response is
// compared with the oracle answers before it counts.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"slices"
	"time"

	"mps"
	"mps/internal/cluster"
	"mps/internal/core"
)

// requestTimeout bounds one request; a timeout counts as a failure.
const requestTimeout = 60 * time.Second

// client is one closed-loop client with one keep-alive connection per
// node it talks to.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	body bytes.Buffer
	// verified holds, per request index, a response body already checked
	// against the oracle: an identical body needs no second decode.
	verified map[int][]byte
}

func newClient() *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, tr: tr, verified: map[int][]byte{}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends body and returns the status, the answering node and the
// response body, which stays valid until the next post.
func (c *client) post(ctx context.Context, url string, body []byte) (status int, servedBy string, resp []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer res.Body.Close()
	c.body.Reset()
	if _, err := c.body.ReadFrom(res.Body); err != nil {
		return 0, "", nil, err
	}
	return res.StatusCode, res.Header.Get(cluster.ServedByHeader), c.body.Bytes(), nil
}

// verify checks the response body of request i against its oracle.
func (c *client) verify(reqs []request, i int, body []byte) error {
	if v, ok := c.verified[i]; ok && bytes.Equal(v, body) {
		return nil
	}
	if err := checkResponse(reqs[i].Want, body); err != nil {
		return err
	}
	c.verified[i] = bytes.Clone(body)
	return nil
}

// instantiateResponse is the part of the /v1/instantiate response the
// check reads.
type instantiateResponse struct {
	Results []struct {
		X           []int  `json:"x"`
		Y           []int  `json:"y"`
		PlacementID int    `json:"placement_id"`
		Member      int    `json:"member"`
		FromBackup  bool   `json:"from_backup"`
		Error       string `json:"error"`
	} `json:"results"`
}

func checkResponse(want []answer, body []byte) error {
	var resp instantiateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Results) != len(want) {
		return fmt.Errorf("%d results for %d queries", len(resp.Results), len(want))
	}
	for q, r := range resp.Results {
		if r.Error != "" {
			return fmt.Errorf("query %d: %s", q, r.Error)
		}
		got := answer{X: r.X, Y: r.Y, PlacementID: r.PlacementID, Member: r.Member, FromBackup: r.FromBackup}
		if err := sameAnswer(q, want[q], got); err != nil {
			return err
		}
	}
	return nil
}

// sameAnswer compares placement ID, member, backup flag and anchors.
func sameAnswer(q int, want, got answer) error {
	if got.PlacementID != want.PlacementID || got.Member != want.Member || got.FromBackup != want.FromBackup ||
		!slices.Equal(got.X, want.X) || !slices.Equal(got.Y, want.Y) {
		return fmt.Errorf("query %d: got placement %d member %d backup %v x %v y %v, want placement %d member %d backup %v x %v y %v",
			q, got.PlacementID, got.Member, got.FromBackup, got.X, got.Y,
			want.PlacementID, want.Member, want.FromBackup, want.X, want.Y)
	}
	return nil
}

func resultAnswer(r core.Result, member int) answer {
	return answer{X: r.X, Y: r.Y, PlacementID: r.PlacementID, Member: member, FromBackup: r.FromBackup}
}

// checkBatch compares a facade batch with the oracle.
func checkBatch(want []answer, got []mps.BatchResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d batch results for %d queries", len(got), len(want))
	}
	for q, br := range got {
		if br.Err != nil {
			return fmt.Errorf("query %d: %w", q, br.Err)
		}
		if err := sameAnswer(q, want[q], resultAnswer(br.Result, br.Member)); err != nil {
			return err
		}
	}
	return nil
}

// structureInfo is the part of the POST /v1/structures response the
// benchmark reads.
type structureInfo struct {
	Key        string     `json:"key"`
	Cached     bool       `json:"cached"`
	Placements int        `json:"placements"`
	Coverage   float64    `json:"coverage"`
	Stats      *mps.Stats `json:"stats"`
}
