package main

// The reference route: the yardstick that makes the request metrics
// repeatable. On a shared host the same request stream runs 30-50% slower
// for tens of seconds at a time, so absolute latencies of runs minutes
// apart cannot be compared. Every node's listener also serves refPath, a
// plain handler that does the least any JSON-over-HTTP server answering
// the request must do: read and decode the body, then encode the
// request's oracle answers. In a fleet the node that does not own the key
// relays the body to the owner first, as the real forward does. The
// clients switch between the server's route and the reference route every
// half second, on the same connections, and the request metrics are
// ratios of the two halves of each second, which saw the same host.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"
)

// refPath prefixes the reference route; the request's pool index follows.
const refPath = "/ref/instantiate/"

// refHalf is how long the clients stay on one route before switching.
const refHalf = 500 * time.Millisecond

// onReference reports whether a request sent at elapsed since the loop
// started goes to the reference route: every second half-second.
func onReference(elapsed time.Duration) bool {
	return int(elapsed/refHalf)%2 == 1
}

// refResult mirrors the server's per-query result encoding.
type refResult struct {
	X           []int `json:"x,omitempty"`
	Y           []int `json:"y,omitempty"`
	PlacementID int   `json:"placement_id"`
	Member      int   `json:"member"`
	FromBackup  bool  `json:"from_backup"`
}

func (n *node) serveReference(w http.ResponseWriter, r *http.Request, idx string) {
	i, err := strconv.Atoi(idx)
	if err != nil || i < 0 || i >= len(n.plan.Requests) {
		http.Error(w, "unknown request", http.StatusNotFound)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var decoded instantiateBody
	if err := json.Unmarshal(body, &decoded); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req := &n.plan.Requests[i]
	if owner := n.plan.Artifacts[req.Artifact].Owner; n.name != "" && owner != "" && owner != n.name {
		relayReference(w, r, owner+r.URL.Path, body)
		return
	}
	results := make([]refResult, len(req.Want))
	for q, a := range req.Want {
		results[q] = refResult{X: a.X, Y: a.Y, PlacementID: a.PlacementID, Member: a.Member, FromBackup: a.FromBackup}
	}
	b, err := json.Marshal(map[string]any{"served": len(results), "results": results})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// relayReference forwards a reference request to the owning node over
// http.DefaultTransport, which carries the real forwards too.
func relayReference(w http.ResponseWriter, r *http.Request, url string, body []byte) {
	fwd, err := http.NewRequestWithContext(r.Context(), http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fwd.Header.Set("Content-Type", "application/json")
	res, err := http.DefaultClient.Do(fwd)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer res.Body.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.StatusCode)
	io.Copy(w, res.Body)
}
