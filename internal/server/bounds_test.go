package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dyndb"
	"repro/internal/engine"
	"repro/internal/wire"
)

// Input bounds of the HTTP front end, and the tenant code-size signal
// in /v1/stats.

// TestOversizedBodyRefused posts a body one byte over the cap to every
// POST verb: each must answer 413 with an error reply, and a normal
// request afterwards is served as usual.
func TestOversizedBodyRefused(t *testing.T) {
	srv, err := New(Config{
		Programs:    map[string]string{"colors": dynSrc},
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	prefix := `{"goal":"`
	body := prefix + strings.Repeat("a", maxBodyBytes+1-len(prefix)) // never closed: the cap hits first
	for _, verb := range []string{"query", "next", "cancel", "suspend", "resume", "assert", "retract"} {
		resp, err := http.Post(ts.URL+"/v1/"+verb, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", verb, err)
		}
		var rep wire.Reply
		derr := json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || derr != nil ||
			rep.Status != wire.StatusError || !strings.Contains(rep.Error, "exceeds") {
			t.Fatalf("%s: status %d, reply %+v (decode %v), want 413 error reply", verb, resp.StatusCode, rep, derr)
		}
	}
	rep, err := client.New(ts.URL).Query(context.Background(), wire.QueryRequest{Program: "colors", Goal: "likes(X)."})
	if err != nil || rep.Status != wire.StatusYes || rep.Bindings["X"] != "white" {
		t.Fatalf("query after refusals: %+v %v", rep, err)
	}
}

// TestSlowHeaderClientDropped: a client that starts a request and
// never finishes its headers is disconnected once readHeaderTimeout
// passes, while a prompt client on the same daemon is served.
func TestSlowHeaderClientDropped(t *testing.T) {
	t.Parallel()
	_, c := startServer(t, Config{})
	conn, err := net.Dial("tcp", strings.TrimPrefix(c.Base(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/query HTTP/1.1\r\nHost: kcmd\r\n"); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Query(context.Background(), wire.QueryRequest{Goal: "app([1], [2], R)."}); err != nil || rep.Status != wire.StatusYes {
		t.Fatalf("prompt client beside a slow one: %+v %v", rep, err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = bufio.NewReader(conn).ReadByte()
	if err != io.EOF {
		t.Fatalf("slow-header connection: read err %v, want EOF (server close)", err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("slow-header connection closed after %v, before the header timeout %v", waited, readHeaderTimeout)
	}
}

// TestTenantTailBoundedOverHTTP writes 1000 times to two tenants
// through the HTTP verbs (assert a new fact, retract the one asserted
// 16 writes earlier) and scrapes /v1/stats as it goes: the summed tail
// stays within twice the live code plus each tenant's floor, and
// compactions are what keeps it there.
func TestTenantTailBoundedOverHTTP(t *testing.T) {
	srv, err := New(Config{
		Programs:    map[string]string{"colors": dynSrc},
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	const writes, band = 1000, 16
	tenants := []string{"ann", "bob"}
	fact := func(k int) string { return fmt.Sprintf("color(k%d)", k) }
	var last wire.TenantCode
	for w, k := 0, 0; w < writes; k++ {
		for _, tenant := range tenants {
			rep, err := c.Assert(ctx, wire.AssertRequest{Program: "colors", Tenant: tenant, Clause: fact(k)})
			if err != nil || rep.Status != wire.StatusYes {
				t.Fatalf("write %d, assert: %+v %v", w, rep, err)
			}
			w++
			if k >= band {
				rep, err := c.Retract(ctx, wire.RetractRequest{Program: "colors", Tenant: tenant, Clause: fact(k - band)})
				if err != nil || rep.Status != wire.StatusYes {
					t.Fatalf("write %d, retract: %+v %v", w, rep, err)
				}
				w++
			}
		}
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		last = st.TenantCode
		if limit := 2*last.LiveWords + len(tenants)*dyndb.CompactFloor; last.TailWords > limit {
			t.Fatalf("after %d writes: %d tail words > %d (2*%d live + %d floors)",
				w, last.TailWords, limit, last.LiveWords, len(tenants))
		}
	}
	if last.Compactions == 0 || last.LiveWords == 0 {
		t.Fatalf("final tenant code %+v: want live code and compactions", last)
	}
}
