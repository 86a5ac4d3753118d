package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSubmit drives arbitrary POST /v1/jobs bodies through the submission
// path (handleSubmit → buildJob → checkJob) of a fresh, unstarted server.
// A body is either rejected with a 4xx carrying an error message, or it is
// accepted as a queued job that passes checkJob with a verified module.
func FuzzSubmit(f *testing.F) {
	valid, _ := json.Marshal(SubmitRequest{Tenant: "acme", IR: testIR, Budget: 8, SeqLen: 4})
	f.Add(valid)
	for _, req := range []SubmitRequest{
		{Tenant: "acme", IR: testIR, Algo: "genetic", DeadlineMS: 1500},
		{Tenant: "acme", IR: testIR, Algo: "anneal"},
		{Tenant: "", IR: testIR},
		{Tenant: "acme", IR: testIR, Budget: -1},
		{Tenant: "acme", IR: testIR, SeqLen: 1000},
		{Tenant: "acme", IR: testIR, DeadlineMS: -5},
		{Tenant: "acme", IR: testIR, DeadlineMS: 1 << 62},
		{Tenant: "acme", IR: "define i32 @main() {\nentry:\n"},
		{Tenant: "acme", IR: poisonIR, Budget: 4096},
	} {
		body, _ := json.Marshal(req)
		f.Add(body)
	}
	f.Add([]byte(`{"tenant":"acme","ir":`))
	f.Add([]byte(`{"tenant":7}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg := testConfig()
		cfg.MaxBody = 1 << 16
		s := newTestServer(t, cfg)
		defer s.Close()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))

		if rec.Code == http.StatusAccepted {
			var ack SubmitResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatalf("202 with an undecodable body %q: %v", rec.Body.Bytes(), err)
			}
			s.mu.Lock()
			j := s.jobs[ack.ID]
			s.mu.Unlock()
			if j == nil {
				t.Fatalf("202 for job %q, which the server does not hold", ack.ID)
			}
			if errText := s.checkJob(j); errText != "" {
				t.Fatalf("accepted job %q fails checkJob: %s", ack.ID, errText)
			}
			if j.mod == nil || j.mod.Verify() != nil {
				t.Fatalf("accepted job %q carries no verified module", ack.ID)
			}
			return
		}
		if rec.Code < 400 || rec.Code > 499 {
			t.Fatalf("status %d, want 202 or a 4xx (body %q)", rec.Code, rec.Body.Bytes())
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Fatalf("%d without an error message: %q", rec.Code, rec.Body.Bytes())
		}
	})
}
