// Quickstart: build a tiny photo archive, declare a few pre-defined
// subsets directly, and let PHOcus decide which photos to keep under a
// storage budget.
//
//	go run ./examples/quickstart
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
)

func main() {
	rng := rand.New(rand.NewSource(42))
	cfg := imagesim.DefaultGenConfig()

	// Three visual categories, six photos each — within a category the
	// photos are near-duplicates, which is the redundancy PHOcus exploits.
	var photos []phocus.Photo
	var byCategory [][]int
	for _, name := range []string{"bikes", "cats", "books"} {
		cat := imagesim.NewCategoryModel(rng, name)
		var ids []int
		for k := 0; k < 6; k++ {
			img := cat.Generate(rng, len(photos), cfg)
			ids = append(ids, len(photos))
			photos = append(photos, phocus.Photo{Image: img})
		}
		byCategory = append(byCategory, ids)
	}

	// Input mode 1 (direct): each category is a pre-defined subset, with
	// "bikes" three times as important as the others.
	ds, err := phocus.BuildDirect(photos, []phocus.SubsetSpec{
		{Name: "bikes", Weight: 3, Members: byCategory[0]},
		{Name: "cats", Weight: 1, Members: byCategory[1]},
		{Name: "books", Weight: 1, Members: byCategory[2]},
	}, phocus.BuildOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	total := ds.Instance.TotalCost()
	fmt.Printf("archive: %d photos, %s total\n", len(photos), metrics.FormatBytes(total))

	// Photo 0 must stay (policy requirement): it joins the instance's
	// retained set S0. Prepare once, then Run with a budget of 25% of the
	// bytes.
	ds.Instance.Retained = []par.PhotoID{0}
	ctx := context.Background()
	prep, err := phocus.Prepare(ctx, ds, phocus.PrepareOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := prep.Run(ctx, phocus.RunOptions{Budget: 0.25 * total})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("budget:  %s\n", metrics.FormatBytes(0.25*total))
	fmt.Printf("keep:    %v (%s)\n", res.Solution.Photos, metrics.FormatBytes(res.Solution.Cost))
	fmt.Printf("archive: %v\n", res.Archived)
	fmt.Printf("score:   %.4f of %.4f attainable\n", res.Solution.Score, ds.Instance.TotalWeight())
	fmt.Printf("quality certificate: ≥ %.1f%% of the optimal selection\n", 100*res.CertifiedRatio)
}
