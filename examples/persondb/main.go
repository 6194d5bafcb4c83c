// Persondb: the paper's §2 example, end to end — person records with a
// short name field and two long fields (picture, voice), each long field
// stored under the manager that suits it best, in a file-backed database
// that is closed and reopened.
//
//	go run ./examples/persondb
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"lobstore"
)

func main() {
	dir, err := os.MkdirTemp("", "persondb")
	must(err)
	defer func() { must(os.RemoveAll(dir)) }()
	cfg := lobstore.DefaultConfig()
	cfg.Backend, cfg.Dir = "file", dir
	db, err := lobstore.Open(cfg)
	must(err)

	people, err := db.CreateRecordFile("people")
	must(err)

	// §2: "they may apply a compression technique that is appropriate for
	// pictures in storing the picture attribute, and a different one that
	// is appropriate for audio" — and, likewise, a different storage
	// structure: pictures are mostly read-only (Starburst's sweet spot),
	// while the voice annotation gets edited (EOS).
	names := []string{"Ada Lovelace", "Edgar Codd", "Grace Hopper"}
	var rids []lobstore.RID
	for i, name := range names {
		picture := bytes.Repeat([]byte{byte(i + 1)}, 200_000)
		voice := bytes.Repeat([]byte{byte(0x80 + i)}, 80_000)

		picObj, picRef, err := people.NewLongField(lobstore.ObjectSpec{Engine: "starburst"})
		must(err)
		must(picObj.Append(picture))
		must(picObj.Close())

		voiceObj, voiceRef, err := people.NewLongField(lobstore.ObjectSpec{Engine: "eos", Threshold: 8})
		must(err)
		must(voiceObj.Append(voice))
		must(voiceObj.Close())

		rid, err := people.Insert([]lobstore.Field{
			lobstore.ShortField([]byte(name)),
			{Long: &picRef},
			{Long: &voiceRef},
		})
		must(err)
		rids = append(rids, rid)
		fmt.Printf("inserted %-14s → %v (picture %d KB, voice %d KB)\n",
			name, rid, len(picture)>>10, len(voice)>>10)
	}

	// Edit one voice annotation in place — a byte insert in the middle,
	// exactly the operation Starburst cannot do cheaply but EOS can.
	fields, err := people.Read(rids[1])
	must(err)
	voice, err := people.OpenLongField(*fields[2].Long)
	must(err)
	stats, err := db.Measure(func() error { return voice.Insert(40_000, []byte("[correction]")) })
	must(err)
	fmt.Printf("\nedited %s's voice annotation: %d I/Os, %v\n",
		fields[0].Inline, stats.Calls(), stats.Time)

	// Close the database and reopen its directory.
	must(db.Close())
	fmt.Printf("closed the database in %s\n", dir)

	db2, err := lobstore.Open(cfg)
	must(err)
	people2, err := db2.OpenRecordFile("people")
	must(err)
	for i, rid := range rids {
		fields, err := people2.Read(rid)
		must(err)
		pic, err := people2.OpenLongField(*fields[1].Long)
		must(err)
		buf := make([]byte, 10)
		must(pic.Read(0, buf))
		if buf[0] != byte(i+1) {
			log.Fatalf("%s's picture corrupted after reopen", fields[0].Inline)
		}
		fmt.Printf("reopened %-14s picture=%d bytes voice=%d bytes ✓\n",
			fields[0].Inline, pic.Size(), mustSize(people2, *fields[2].Long))
	}
	must(db2.Close())
}

func mustSize(rf *lobstore.RecordFile, ref lobstore.LongRef) int64 {
	o, err := rf.OpenLongField(ref)
	if err != nil {
		log.Fatal(err)
	}
	return o.Size()
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
