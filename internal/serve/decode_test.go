package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hybridpde/internal/cache"
)

// FuzzDecodeRequest fuzzes the one decode+validate function under both
// endpoints' rules (seed corpus in testdata/fuzz: the README quickstart
// bodies and one body per rejection class). It must never panic; what it
// accepts must survive a marshal → decode round trip unchanged, shape and
// solve keys included (the backend must see the identity the gateway
// routed); and nothing accepted for /v1/solve may carry a stream field.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream bool, data []byte) {
		ep := EndpointSolve
		if stream {
			ep = EndpointStream
		}
		decode := func(body []byte) (Request, error) {
			r := httptest.NewRequest(http.MethodPost, string(ep), bytes.NewReader(body))
			req, _, err := DecodeRequest(httptest.NewRecorder(), r, ep, 0, 0)
			return req, err
		}
		req, err := decode(data)
		if err != nil {
			return
		}
		if ep == EndpointSolve && (req.Steps != 0 || req.Dt != 0 || req.IncludeSolution) {
			t.Fatalf("/v1/solve accepted stream fields: %+v", req)
		}
		body, _ := json.Marshal(&req) // a failure leaves nothing to decode below
		again, err := decode(body)
		if err != nil {
			t.Fatalf("normalized request %s no longer decodes: %v", body, err)
		}
		if again != req {
			t.Fatalf("round trip changed the request:\n%+v\n%+v", req, again)
		}
		var kb cache.KeyBuilder
		if ShapeKey(&req, &kb) != ShapeKey(&again, &kb) || SolveKey(&req, &kb) != SolveKey(&again, &kb) {
			t.Fatalf("round trip moved the shape or solve key of %s", body)
		}
	})
}
