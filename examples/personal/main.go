// Personal is the paper's smartphone scenario: a personal photo archive
// organized automatically — visual tags from a learned tagger plus
// EXIF-derived trip albums (time and location clusters) — from which PHOcus
// picks what stays in local storage, with passport-style documents pinned
// by policy, and the rest uploaded to the cloud.
//
//	go run ./examples/personal
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"phocus/internal/imagesim"
	"phocus/internal/metrics"
	"phocus/internal/par"
	"phocus/internal/phocus"
	"phocus/internal/tagging"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	gen := imagesim.DefaultGenConfig()

	// Simulated camera roll: trips produce bursts of visually similar
	// photos taken close together in time and space.
	type trip struct {
		name     string
		lat, lon float64
		start    int64
		shots    int
	}
	trips := []trip{
		{"paris-2016", 48.85, 2.35, 1_460_000_000, 14},
		{"tokyo-2019", 35.68, 139.7, 1_560_000_000, 18},
		{"beach-2021", 36.1, -5.35, 1_620_000_000, 12},
	}
	var photos []phocus.Photo
	var all []*imagesim.Photo
	tagger := tagging.New(imagesim.DefaultEmbeddingConfig())
	for _, tr := range trips {
		cat := imagesim.NewCategoryModel(rng, tr.name)
		var examples []*imagesim.Photo
		for k := 0; k < tr.shots; k++ {
			img := cat.Generate(rng, len(photos), gen)
			img.EXIF.UnixTime = tr.start + int64(k)*3600
			img.EXIF.Latitude = tr.lat + 0.01*rng.NormFloat64()
			img.EXIF.Longitude = tr.lon + 0.01*rng.NormFloat64()
			photos = append(photos, phocus.Photo{Image: img})
			all = append(all, img)
			examples = append(examples, img)
		}
		tagger.Learn(tr.name, examples)
	}
	// Two document photos (passport, vaccination record) that policy pins
	// to local storage.
	docs := imagesim.NewCategoryModel(rng, "documents")
	var retained []par.PhotoID
	for k := 0; k < 2; k++ {
		img := docs.Generate(rng, len(photos), gen)
		retained = append(retained, par.PhotoID(len(photos)))
		photos = append(photos, phocus.Photo{Image: img})
		all = append(all, img)
	}

	// Subsets from three automatic organizers, exactly as the paper's
	// personal scenario describes: visual tags (input mode 3), plus EXIF
	// albums by capture month and by location cluster. Trip tags get 3×
	// weight — these are the albums the user actually browses.
	var specs []phocus.SubsetSpec
	tagMembers := map[string]*phocus.SubsetSpec{}
	for i := range photos {
		// maxTags 1: a photo joins only its best-matching trip album.
		for _, tag := range tagger.Tag(photos[i].Image, 0.55, 1) {
			spec, ok := tagMembers[tag.Name]
			if !ok {
				spec = &phocus.SubsetSpec{Name: "trip-" + tag.Name}
				tagMembers[tag.Name] = spec
			}
			spec.Members = append(spec.Members, i)
			spec.Relevance = append(spec.Relevance, tag.Confidence)
		}
	}
	for _, name := range tagger.Names() {
		if spec, ok := tagMembers[name]; ok && len(spec.Members) >= 2 {
			spec.Weight = 3 * float64(len(spec.Members))
			specs = append(specs, *spec)
		}
	}
	for _, g := range tagging.GroupByTime(all, 30*24*3600) {
		if s := albumSpec("month-"+g.Name, g); len(s.Members) >= 2 {
			specs = append(specs, s)
		}
	}
	for _, g := range tagging.GroupByLocation(all, 1.0) {
		if s := albumSpec("place-"+g.Name, g); len(s.Members) >= 2 {
			specs = append(specs, s)
		}
	}
	ds, err := phocus.BuildDirect(photos, specs, phocus.BuildOptions{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	total := ds.Instance.TotalCost()
	fmt.Printf("camera roll: %d photos, %s; %d auto-derived albums\n",
		len(photos), metrics.FormatBytes(total), len(ds.Instance.Subsets))

	// The pinned documents are the instance's retained set S0.
	ds.Instance.Retained = retained
	ctx := context.Background()
	prep, err := phocus.Prepare(ctx, ds, phocus.PrepareOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := prep.Run(ctx, phocus.RunOptions{Budget: 0.3 * total})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phone keeps %d photos (%s of %s budget), %d upload to cloud\n",
		len(res.Solution.Photos), metrics.FormatBytes(res.Solution.Cost),
		metrics.FormatBytes(0.3*total), len(res.Archived))
	for _, p := range retained {
		found := false
		for _, kept := range res.Solution.Photos {
			if kept == p {
				found = true
			}
		}
		fmt.Printf("document photo #%d pinned locally: %v\n", p, found)
	}
	fmt.Printf("coverage score %.4f of %.4f attainable (certified ≥ %.0f%% of optimal)\n",
		res.Solution.Score, ds.Instance.TotalWeight(), 100*res.CertifiedRatio)

	// Per-trip coverage: every trip should keep at least one local photo.
	kept := map[par.PhotoID]bool{}
	for _, p := range res.Solution.Photos {
		kept[p] = true
	}
	for qi, q := range ds.Instance.Subsets {
		if qi >= 3 {
			break // the first three subsets are the trip tags
		}
		n := 0
		for _, p := range q.Members {
			if kept[p] {
				n++
			}
		}
		fmt.Printf("album %-12q: %d of %d photos kept locally\n", q.Name, n, len(q.Members))
	}
}

// albumSpec converts a metadata group into a direct subset spec.
func albumSpec(name string, g tagging.Group) phocus.SubsetSpec {
	spec := phocus.SubsetSpec{Name: name, Weight: float64(len(g.Photos))}
	for _, p := range g.Photos {
		spec.Members = append(spec.Members, p.ID)
	}
	return spec
}
