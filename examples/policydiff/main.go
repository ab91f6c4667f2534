// Policy diff: the policy-author scenario from §5 — track changes between
// policy versions with content-hashed segments, re-extract only the
// modified statements, and report what the new version's graph changed.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"github.com/privacy-quagmire/quagmire"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
)

func main() {
	ctx := context.Background()

	an, err := quagmire.New(quagmire.Config{})
	if err != nil {
		log.Fatal(err)
	}

	v1 := corpus.Mini()
	a1, err := an.Analyze(ctx, v1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v1: %d edges\n", a1.Stats().Edges)

	// A new regulation forces two changes: biometric collection is
	// disclosed, and the sale denial is strengthened.
	v2 := strings.Replace(v1,
		"We collect device identifiers automatically.",
		"We collect device identifiers and voiceprints automatically.", 1)
	v2 = strings.Replace(v2,
		"We do not sell your personal information.",
		"We do not sell your personal information. We do not disclose your voiceprints.", 1)

	a2, diff, st, err := an.Update(ctx, a1, v2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("v2: %d edges\n\n", a2.Stats().Edges)
	fmt.Printf("segment diff: %d kept, %d added, %d removed (%.1f%% changed)\n",
		len(diff.Kept), len(diff.Added), len(diff.Removed), 100*diff.ChangedFraction())
	for _, s := range diff.Added {
		fmt.Printf("  + %s\n", s.Text)
	}
	for _, s := range diff.Removed {
		fmt.Printf("  - %s\n", s.Text)
	}
	fmt.Printf("\ngraph update: %d edges removed, %d added, %d new hierarchy terms\n",
		st.EdgesRemoved, st.EdgesAdded, st.NewTerms)

	// The updated graph answers questions about the new disclosures.
	res, err := a2.Ask(ctx, "Does Acme collect my voiceprints?")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery: Does Acme collect my voiceprints?  verdict: %s\n", res.Verdict)
}
