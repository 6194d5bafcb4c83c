package lobstore_test

import (
	"fmt"
	"log"
	"os"

	"lobstore"
)

// Example shows the minimal lifecycle: open a simulated database, create a
// large object, and watch the simulated I/O cost of byte-level operations.
func Example() {
	db, err := lobstore.Open(lobstore.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	obj, err := db.NewEOS(16) // EOS with a 16-page segment threshold
	if err != nil {
		log.Fatal(err)
	}
	// A 100-byte read of a fresh one-page object costs one seek plus one
	// page of transfer: 33 + 4 = 37 ms with the paper's parameters.
	if err := obj.Append(make([]byte, 4096)); err != nil {
		log.Fatal(err)
	}
	stats, err := db.Measure(func() error { return obj.Read(0, make([]byte, 100)) })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read: %d I/O, %v\n", stats.Calls(), stats.Time)
	// Output:
	// read: 1 I/O, 37ms
}

// ExampleDB_Measure demonstrates the paper's §4.1 cost model: one I/O call
// moving three adjacent pages costs 33+4·3 = 45 ms, while three separate
// calls would cost (33+4)·3 = 111 ms.
func ExampleDB_Measure() {
	db, err := lobstore.Open(lobstore.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	obj, err := db.NewStarburst(0)
	if err != nil {
		log.Fatal(err)
	}
	if err := obj.Append(make([]byte, 64<<10)); err != nil {
		log.Fatal(err)
	}
	// Bytes [28K,60K) lie inside one segment of the doubling pattern; an
	// aligned 3-page read there is a single I/O call.
	stats, err := db.Measure(func() error { return obj.Read(7*4096, make([]byte, 3*4096)) })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d call(s), %d pages, %v\n", stats.Calls(), stats.Pages(), stats.Time)
	// Output:
	// 1 call(s), 3 pages, 45ms
}

// ExampleDB_Create shows named objects: they register in the catalog, so a
// file-backed database finds them again when its directory is reopened.
func ExampleDB_Create() {
	dir, err := os.MkdirTemp("", "lobstore-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := lobstore.DefaultConfig()
	cfg.Backend, cfg.Dir = "file", dir

	db, err := lobstore.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	obj, err := db.Create("report", lobstore.ObjectSpec{Engine: "esm", LeafPages: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := obj.Append([]byte("quarterly numbers")); err != nil {
		log.Fatal(err)
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	db2, err := lobstore.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	obj2, err := db2.OpenObject("report")
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, obj2.Size())
	if err := obj2.Read(0, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", buf)
	// Output:
	// quarterly numbers
}

// ExampleObject_Insert contrasts the three structures on the operation
// that separates them: a byte insert in the middle of a 1 MB object.
func ExampleObject_Insert() {
	for _, engine := range []string{"esm", "starburst", "eos"} {
		db, err := lobstore.Open(lobstore.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		obj, err := db.Create("x", lobstore.ObjectSpec{
			Engine: engine, LeafPages: 4, Threshold: 4,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := obj.Append(make([]byte, 1<<20)); err != nil {
			log.Fatal(err)
		}
		stats, err := db.Measure(func() error { return obj.Insert(512<<10, []byte("x")) })
		if err != nil {
			log.Fatal(err)
		}
		// Starburst copies everything right of the insert; the tree
		// managers touch a handful of pages.
		fmt.Printf("%-9s %s\n", engine, costBand(stats))
	}
	// Output:
	// esm       under a second
	// starburst seconds
	// eos       under a second
}

func costBand(s lobstore.Stats) string {
	if s.Time.Seconds() >= 1 {
		return "seconds"
	}
	return "under a second"
}
