// Queryserver runs the TCP query server in-process, connects the binary
// protocol client and the HTTP gateway to it, and round-trips queries —
// the deployment shape of the paper's motivating applications
// (social-network path queries behind a latency budget).
//
//	go run ./examples/queryserver
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/qclient"
	"vicinity/internal/qserver"
)

func main() {
	// Build the oracle.
	g := gen.ProfileDBLP.Generate(4000, 7)
	oracle, err := core.Build(g, core.Options{Alpha: 4, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("oracle:", oracle.Stats())

	// Start the TCP server on a loopback port.
	srv := qserver.New(oracle, qserver.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	addr := ln.Addr().String()
	fmt.Println("tcp server:", addr)

	// Binary-protocol client.
	client, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	rtt, err := client.Ping()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ping:", rtt)

	ctx := context.Background()
	for _, p := range [][2]uint32{{1, 2000}, {17, 3999}} {
		start := time.Now()
		res, err := client.Query(ctx, qclient.QuerySpec{S: p[0], T: p[1], WantPath: true})
		if err != nil {
			log.Fatal(err)
		}
		it := res.Items[0]
		if it.Err != nil {
			log.Fatal(it.Err)
		}
		fmt.Printf("tcp  d(%d,%d) = %d, %d-hop path, round trip in %v\n",
			p[0], p[1], it.Dist, len(it.Path)-1, time.Since(start).Round(time.Microsecond))
	}
	// One-to-many: rank candidates by distance from one source in a
	// single round trip.
	ts := []uint32{2000, 3999, 42}
	res, err := client.Query(ctx, qclient.QuerySpec{S: 1, Ts: ts})
	if err != nil {
		log.Fatal(err)
	}
	for i, it := range res.Items {
		fmt.Printf("tcp  rank d(1,%d) = %d\n", ts[i], it.Dist)
	}
	st, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tcp  server stats: n=%d |L|=%d queries=%d\n", st.Nodes, st.Landmarks, st.QueriesServed)

	// HTTP/JSON gateway over the same oracle.
	hs := httptest.NewServer(srv.Handler())
	const query = `{"s":1,"t":2000}`
	resp, err := http.Post(hs.URL+"/v2/query", "application/json", strings.NewReader(query))
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("http POST /v2/query %s → %s", query, body)
	hs.Close()

	// Graceful shutdown: close the client first so the server drains.
	client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	m := srv.Metrics()
	fmt.Printf("shutdown complete: %d queries over %d connections\n", m.Queries, m.TotalConns)
}
