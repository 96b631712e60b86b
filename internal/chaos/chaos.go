// Package chaos holds the response contract behind the overload-protection
// and fault-injection guarantees: every response is a well-formed envelope
// with one of the allowed statuses, errors carry the JSON error shape, and
// 503s carry Retry-After. The HTTP load generator and the benchmark client
// check every response against it.
//
// The soak harness that drives the contract in-process lives in the
// package's tests (harness_test.go): it replays deterministic workload
// mixes against a server handler at N virtual users — optionally with
// aggressive client deadlines — so a soak under -race doubles as a
// data-race sweep of the admission, cache and fault paths, and post-soak
// leak checks (goroutines, canvases, textures, admission counters) see the
// exact process state.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// AllowedStatuses is the chaos response contract: under arbitrary seeded
// faults, client cancellations, and overload shedding, every response
// carries one of these codes. Anything else — in particular a 500 or a
// hang — is a bug in the server, not in the chaos schedule.
var AllowedStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusNotModified:           true,
	http.StatusBadRequest:            true,
	http.StatusRequestEntityTooLarge: true,
	499:                              true, // client closed request
	http.StatusServiceUnavailable:    true,
	http.StatusGatewayTimeout:        true,
}

// errEnvelope mirrors the server's unified error body.
type errEnvelope struct {
	Error struct {
		Status  int    `json:"status"`
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// ValidateResponse checks one response against the chaos contract. It is
// shared by the in-process soak and the HTTP load generator.
func ValidateResponse(method, path string, status int, header http.Header, body []byte) error {
	if !AllowedStatuses[status] {
		return fmt.Errorf("%s %s: status %d outside contract", method, path, status)
	}
	if strings.HasPrefix(path, "/api/") && header.Get("X-Urbane-Elapsed-Ms") == "" {
		return fmt.Errorf("%s %s: %d response missing X-Urbane-Elapsed-Ms", method, path, status)
	}
	switch {
	case status == http.StatusNotModified:
		if len(body) != 0 {
			return fmt.Errorf("%s %s: 304 with %d-byte body", method, path, len(body))
		}
	case status >= 400:
		if status == http.StatusServiceUnavailable && header.Get("Retry-After") == "" {
			return fmt.Errorf("%s %s: 503 without Retry-After", method, path)
		}
		var env errEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			return fmt.Errorf("%s %s: %d body is not an error envelope: %v", method, path, status, err)
		}
		if env.Error.Status != status || env.Error.Code == "" {
			return fmt.Errorf("%s %s: envelope status=%d code=%q under HTTP %d",
				method, path, env.Error.Status, env.Error.Code, status)
		}
	case strings.Contains(header.Get("Content-Type"), "application/json"):
		if !json.Valid(body) {
			return fmt.Errorf("%s %s: 200 body is invalid JSON", method, path)
		}
	case strings.Contains(header.Get("Content-Type"), "image/png"):
		if !bytes.HasPrefix(body, []byte("\x89PNG")) {
			return fmt.Errorf("%s %s: 200 image/png body lacks PNG magic", method, path)
		}
	}
	return nil
}
