// Command lobserve serves a large-object database over TCP, speaking the
// internal/wire length-prefixed binary protocol. It opens the store
// through the concurrency engine (Config.Concurrent), so many
// connections share one database with per-object FIFO ordering and
// snapshot reads, and commits from independent connections share the file
// backend's group-commit batches.
//
//	$ lobserve -addr :7431 -backend file -dir /data/lob
//
// The server logs "listening on ADDR" to stderr once ready (use -addr
// with port 0 to pick a free port), and shuts down cleanly on SIGINT or
// SIGTERM, printing request counts and service-time percentiles.
//
// Flags:
//
//	-addr          TCP listen address (default 127.0.0.1:7431)
//	-backend       mem or file (default mem)
//	-dir           file-backend directory
//	-sync          file-backend fsync policy: always, commit, never
//	-group-commit  max barriers per device flush (default 16)
//	-buffer-pages  buffer pool size in pages (default 256; 0 = concurrent minimum)
//	-workers       executor goroutines per connection (0 = default 4)
//	-chunk         streaming-read frame payload bytes (0 = 64KiB)
//
// lobload is the matching load generator.
package main

import (
	"os"

	"lobstore/internal/server"
)

func main() {
	os.Exit(server.RunServe("lobserve", os.Args[1:], os.Stderr))
}
