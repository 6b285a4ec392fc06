// Command refserver serves the benchmark's reference load (../refload) on a
// loopback port of its own choosing. The benchmark starts it on the daemon's
// CPU and stops it with SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/bench/refload"
)

func main() {
	addrFile := flag.String("addr-file", "", "write the listening address to this file once the table is built")
	flag.Parse()
	if err := serve(*addrFile); err != nil {
		fmt.Fprintln(os.Stderr, "refserver:", err)
		os.Exit(1)
	}
}

func serve(addrFile string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	mux := http.NewServeMux()
	mux.Handle("POST /ref", refload.NewTable())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// Written whole or not at all: the benchmark polls for it.
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	shutdown, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shutdown)
}
