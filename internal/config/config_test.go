package config

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/workload"
)

func builtWorld(t testing.TB) (*core.Middleware, *workload.World) {
	t.Helper()
	world := workload.MustGenerate(workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 8, Seed: 51,
	})
	mw, err := core.NewWithCatalog(world.Ontology, world.Catalog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	if err := mw.SetClassKey("product", "thing.product.model"); err != nil {
		t.Fatal(err)
	}
	return mw, world
}

func TestRoundTripThroughFile(t *testing.T) {
	mw, world := builtWorld(t)
	cfg, err := FromMiddleware(mw)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s2s.json")
	if err := SaveFile(path, cfg); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild against the same backends and compare query behaviour.
	rebuilt, err := loaded.BuildMiddleware(core.Config{Backends: extract.FromCatalog(world.Catalog)})
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT product WHERE brand='Seiko'"
	a, err := mw.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rebuilt.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Matched) != len(b.Matched) {
		t.Fatalf("original %d matched, rebuilt %d", len(a.Matched), len(b.Matched))
	}
	if got := rebuilt.Mappings().ClassKey("product"); got != "thing.product.model" {
		t.Errorf("class key lost: %q", got)
	}
	if rebuilt.Sources().Len() != mw.Sources().Len() {
		t.Errorf("sources: %d vs %d", rebuilt.Sources().Len(), mw.Sources().Len())
	}
	again, err := FromMiddleware(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, cfg) {
		t.Error("configuration changed on its way through the file and a rebuilt middleware")
	}
}

// FuzzConfigRead feeds arbitrary bytes to Read and whatever it accepts
// to BuildMiddleware with empty backends: neither may panic. A document
// that builds must then reach a fixed point: writing the rebuilt
// middleware's configuration and building from that again gives the same
// configuration. The seed corpus holds the paper world's configuration.
func FuzzConfigRead(f *testing.F) {
	mw, _ := builtWorld(f)
	cfg, err := FromMiddleware(mw)
	if err != nil {
		f.Fatal(err)
	}
	var doc bytes.Buffer
	if err := cfg.Write(&doc); err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	f.Add([]byte(`{"ontology": "<rdf:RDF/>"}`))
	f.Add([]byte(`{"ontology": "x", "sources": [{"id": "s", "kind": "xml"}], "classKeys": {"a": "b"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		mw, err := cfg.BuildMiddleware(core.Config{})
		if err != nil {
			return
		}
		first, err := FromMiddleware(mw)
		if err != nil {
			t.Fatal(err)
		}
		var doc bytes.Buffer
		if err := first.Write(&doc); err != nil {
			t.Fatal(err)
		}
		reread, err := Read(&doc)
		if err != nil {
			t.Fatalf("written configuration does not read back: %v", err)
		}
		rebuilt, err := reread.BuildMiddleware(core.Config{})
		if err != nil {
			t.Fatalf("written configuration does not build: %v", err)
		}
		second, err := FromMiddleware(rebuilt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Error("configuration changed on a write-read-build round trip")
		}
	})
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":          `not json`,
		"missing ontology": `{"sources": []}`,
		"unknown field":    `{"ontology": "x", "bogus": 1}`,
	}
	for name, doc := range cases {
		if _, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBuildMiddlewareErrors(t *testing.T) {
	mw, _ := builtWorld(t)
	good, err := FromMiddleware(mw)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("bad ontology", func(t *testing.T) {
		bad := *good
		bad.OntologyOWL = "<not-owl/>"
		if _, err := bad.BuildMiddleware(core.Config{}); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("bad source kind", func(t *testing.T) {
		cfg := *good
		cfg.Sources = append(cfg.Sources[:0:0], cfg.Sources...)
		cfg.Sources[0].Kind = "tape-drive"
		if _, err := cfg.BuildMiddleware(core.Config{}); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("bad mapping", func(t *testing.T) {
		cfg := *good
		cfg.Mappings = append(cfg.Mappings[:0:0], cfg.Mappings...)
		cfg.Mappings[0].Attribute = "thing.nosuch"
		if _, err := cfg.BuildMiddleware(core.Config{}); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("bad class key", func(t *testing.T) {
		cfg := *good
		cfg.ClassKeys = map[string]string{"nosuch": "thing.product.brand"}
		if _, err := cfg.BuildMiddleware(core.Config{}); err == nil {
			t.Error("accepted")
		}
	})
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file loaded")
	}
}
