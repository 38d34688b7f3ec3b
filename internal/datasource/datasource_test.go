package datasource

import (
	"strings"
	"testing"

	"repro/internal/reldb"
)

func TestDefinitionValidate(t *testing.T) {
	tests := []struct {
		name    string
		def     Definition
		wantErr bool
	}{
		{"web ok", Definition{ID: "wpage_81", Kind: KindWeb, URL: "http://shop/w"}, false},
		{"web missing url", Definition{ID: "w", Kind: KindWeb}, true},
		{"xml ok", Definition{ID: "x", Kind: KindXML, Path: "catalog.xml"}, false},
		{"xml missing path", Definition{ID: "x", Kind: KindXML}, true},
		{"db ok", Definition{ID: "DB_ID_45", Kind: KindDatabase, DSN: "inventory"}, false},
		{"db missing dsn", Definition{ID: "d", Kind: KindDatabase}, true},
		{"text ok", Definition{ID: "t", Kind: KindText, Path: "prices.txt"}, false},
		{"empty id", Definition{Kind: KindWeb, URL: "http://x"}, true},
		{"unknown kind", Definition{ID: "u", Kind: Kind(99)}, true},
	}
	for _, tt := range tests {
		err := tt.def.Validate()
		if (err != nil) != tt.wantErr {
			t.Errorf("%s: Validate() = %v, wantErr %v", tt.name, err, tt.wantErr)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindWeb: "web", KindXML: "xml", KindDatabase: "database", KindText: "text"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Error("unknown kind string")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	def := Definition{ID: "wpage_81", Kind: KindWeb, URL: "http://shop/watches"}
	if err := r.Register(def); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(def); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := r.Register(Definition{ID: "bad", Kind: KindWeb}); err == nil {
		t.Error("invalid definition accepted")
	}
	got, err := r.Lookup("wpage_81")
	if err != nil || got.URL != def.URL {
		t.Fatalf("Lookup = %+v, %v", got, err)
	}
	if _, err := r.Lookup("missing"); err == nil {
		t.Error("missing lookup succeeded")
	}
	if err := r.Register(Definition{ID: "DB_ID_45", Kind: KindDatabase, DSN: "inv"}); err != nil {
		t.Fatal(err)
	}
	all := r.All()
	if len(all) != 2 || all[0].ID != "DB_ID_45" {
		t.Errorf("All = %+v", all)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestCatalogPagesAndDBs(t *testing.T) {
	c := NewCatalog()
	c.AddPage("http://shop/w1", "<html>watch</html>")
	html, err := c.Fetch("http://shop/w1")
	if err != nil || html != "<html>watch</html>" {
		t.Fatalf("Fetch = %q, %v", html, err)
	}
	if _, err := c.Fetch("http://shop/missing"); err == nil {
		t.Error("missing page fetched")
	}

	db := reldb.New()
	db.MustExec("CREATE TABLE t (a TEXT)")
	c.AddDB("inventory", db)
	got, err := c.DB("inventory")
	if err != nil || got != db {
		t.Fatalf("DB = %v, %v", got, err)
	}
	if _, err := c.DB("missing"); err == nil {
		t.Error("missing DB resolved")
	}

	// XML and text stores are wired in.
	c.XML.MustAdd("cat.xml", "<a><b>1</b></a>")
	if root, err := c.XML.Get("cat.xml"); err != nil || root == nil {
		t.Errorf("XML get = %v, %v", root, err)
	}
	c.Text.MustAdd("p.txt", "price=5")
	if content, err := c.Text.Get("p.txt"); err != nil || content != "price=5" {
		t.Errorf("Text get = %q, %v", content, err)
	}
}
