package baseline

import (
	"context"
	"sort"
	"strings"

	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/nlp"
)

// FleetStats is the MAPS-style aggregate over a fleet of policies: which
// fractions of apps collect/share which data categories (MAPS analyzed
// over a million Android apps this way).
type FleetStats struct {
	// Policies analyzed.
	Policies int
	// CollectRates maps a data-category keyword to the fraction of
	// policies with at least one collection practice touching it.
	CollectRates map[string]float64
	// ShareRates is the sharing analog.
	ShareRates map[string]float64
	// DenySaleRate is the fraction of policies explicitly denying sale.
	DenySaleRate float64
	// VagueRate is the fraction of policies containing at least one vague
	// condition — the Usable Privacy Policy Project reports such language
	// in over 75% of policies (§1).
	VagueRate float64
}

// fleetCategories are the data categories MAPS-style analysis aggregates.
var fleetCategories = []string{"location", "contact", "email", "device", "financial", "biometric", "history"}

// AnalyzeFleet extracts each policy and aggregates category rates.
func AnalyzeFleet(ctx context.Context, policies []string) (FleetStats, error) {
	stats := FleetStats{
		Policies:     len(policies),
		CollectRates: map[string]float64{},
		ShareRates:   map[string]float64{},
	}
	collectCounts := map[string]int{}
	shareCounts := map[string]int{}
	denySale := 0
	vague := 0
	for _, text := range policies {
		e := extract.New(llm.NewCachingClient(llm.NewSim()))
		ex, err := e.ExtractPolicy(ctx, text)
		if err != nil {
			return stats, err
		}
		collected := map[string]bool{}
		shared := map[string]bool{}
		sawDenySale := false
		sawVague := false
		for _, p := range ex.Practices {
			if len(p.VagueTerms) > 0 {
				sawVague = true
			}
			cat := fleetCategory(p.DataType)
			if cat == "" {
				continue
			}
			switch classifyVerb(p.Action) {
			case "collect":
				collected[cat] = true
			case "share":
				if p.Permission == "deny" && nlp.VerbBase(p.Action) == "sell" {
					sawDenySale = true
				} else if p.Permission == "allow" {
					shared[cat] = true
				}
			}
			if p.Permission == "deny" && nlp.VerbBase(firstWord(p.Action)) == "sell" {
				sawDenySale = true
			}
		}
		for c := range collected {
			collectCounts[c]++
		}
		for c := range shared {
			shareCounts[c]++
		}
		if sawDenySale {
			denySale++
		}
		if sawVague {
			vague++
		}
	}
	if len(policies) > 0 {
		for _, c := range fleetCategories {
			stats.CollectRates[c] = float64(collectCounts[c]) / float64(len(policies))
			stats.ShareRates[c] = float64(shareCounts[c]) / float64(len(policies))
		}
		stats.DenySaleRate = float64(denySale) / float64(len(policies))
		stats.VagueRate = float64(vague) / float64(len(policies))
	}
	return stats, nil
}

// fleetCategory buckets a data type into a MAPS category keyword.
func fleetCategory(dataType string) string {
	lower := strings.ToLower(dataType)
	for _, c := range fleetCategories {
		if strings.Contains(lower, c) {
			return c
		}
	}
	switch {
	case strings.Contains(lower, "gps") || strings.Contains(lower, "geolocation"):
		return "location"
	case strings.Contains(lower, "phone number") || strings.Contains(lower, "address"):
		return "contact"
	case strings.Contains(lower, "credit") || strings.Contains(lower, "payment") || strings.Contains(lower, "transaction"):
		return "financial"
	case strings.Contains(lower, "faceprint") || strings.Contains(lower, "voiceprint"):
		return "biometric"
	}
	return ""
}

// classifyVerb reduces an action to collect/share/other.
func classifyVerb(action string) string {
	base := nlp.VerbBase(firstWord(action))
	switch base {
	case "collect", "receive", "obtain", "gather", "record", "access", "capture", "track", "infer", "derive", "scan", "read":
		return "collect"
	case "share", "disclose", "sell", "transfer", "send", "provide", "give", "transmit", "release", "distribute":
		return "share"
	default:
		return "other"
	}
}

// TopCategories returns categories sorted by collection rate, descending.
func (f FleetStats) TopCategories() []string {
	out := append([]string(nil), fleetCategories...)
	sort.Slice(out, func(i, j int) bool {
		if f.CollectRates[out[i]] != f.CollectRates[out[j]] {
			return f.CollectRates[out[i]] > f.CollectRates[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
