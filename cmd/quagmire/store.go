package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/privacy-quagmire/quagmire/internal/store"
)

// runStore is `quagmire store <subcommand>`. The only subcommand so far
// is inspect: a read-only report on a store data directory — snapshot
// format version and watermark, the retained WAL generation's records,
// sequence range and size, the live log's record count and durable
// sequence, and per-policy version/payload accounting, as recovery would
// find them. It opens the store read-only (no WAL truncation, no file
// created), so it is safe against a directory another process is serving
// from.
func runStore(args []string) error {
	if len(args) == 0 || args[0] != "inspect" {
		return fmt.Errorf("usage: quagmire store inspect -data <dir> [-json]")
	}
	fs := flag.NewFlagSet("store inspect", flag.ContinueOnError)
	dataDir := fs.String("data", "", "store data directory (required)")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("usage: quagmire store inspect -data <dir> [-json]")
	}
	info, err := store.Inspect(*dataDir)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(info)
	}

	switch info.SnapshotCodec {
	case 0:
		fmt.Printf("snapshot: none (WAL only)\n")
	default:
		fmt.Printf("snapshot: v%d, seq %d, %d bytes\n", info.SnapshotCodec, info.SnapshotSeq, info.SnapshotBytes)
	}
	if info.RetainedRecords > 0 || info.RetainedBytes > 0 || info.RetainedCorrupt != "" {
		fmt.Printf("retained wal: %d records, seq %d-%d, %d bytes\n",
			info.RetainedRecords, info.RetainedFirstSeq, info.RetainedSeq, info.RetainedBytes)
	}
	if info.RetainedCorrupt != "" {
		fmt.Printf("retained wal corrupt tail: %s\n", info.RetainedCorrupt)
	}
	fmt.Printf("wal: %d records, seq %d, %d bytes\n", info.WALRecords, info.WALSeq, info.WALBytes)
	if info.WALCorrupt != "" {
		fmt.Printf("wal corrupt tail: %s\n", info.WALCorrupt)
	}
	fmt.Printf("policies: %d\n", len(info.Policies))
	if len(info.Policies) > 0 {
		fmt.Printf("%-8s %-40s %8s %14s\n", "ID", "NAME", "VERSIONS", "PAYLOAD BYTES")
		for _, p := range info.Policies {
			fmt.Printf("%-8s %-40s %8d %14d\n", p.ID, p.Name, p.Versions, p.PayloadBytes)
		}
	}
	return nil
}
