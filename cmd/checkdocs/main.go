// Command checkdocs is the documentation gate run by CI: it fails when any
// package under internal/ (or any command under cmd/) lacks a package-level
// doc comment, or when an exported top-level declaration of the public
// facade package (the repository root), of the shared interface package
// internal/summary, of the multi-level ingestion core internal/mlq, of
// the relative-error tail tier internal/req, of the randomized
// Felber–Ostrovsky tier internal/fo, of the wire format internal/encoding,
// or of the HTTP and aggregation tier internal/cluster is undocumented.
//
// The rule matches the repository's documentation contract (DESIGN.md):
// every package states which paper section or related-work result it
// implements, and every exported facade symbol is usable from godoc alone.
// internal/summary is held to the facade bar because its interfaces
// (Quantile, Mergeable, WeightedUpdater, …) are the contracts every summary
// package implements — an undocumented method there is an undocumented
// obligation everywhere. internal/mlq and internal/req are held to it
// because their exported surfaces (Entry rank bounds, LevelState/Buffered
// state, Restore) are the wire contracts the encoding layer and its fuzz
// corpus build on; internal/fo because its exported surface (Config, the
// ExportState fields carrying the generator state, Restore) is both the
// KindFO wire contract and the seeding contract reproducibility rests on.
// internal/encoding and internal/cluster are held to it because their
// exported surfaces are the wire format and HTTP contract other nodes and
// the benchmark program build against.
//
// Usage (from the repository root):
//
//	go run ./cmd/checkdocs
//
// It prints one line per violation and exits non-zero if there are any.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var violations []string
	for _, root := range []string{"internal", "cmd"} {
		dirs, err := packageDirs(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "checkdocs: %v\n", err)
			os.Exit(2)
		}
		for _, dir := range dirs {
			v, err := checkPackageComment(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "checkdocs: %v\n", err)
				os.Exit(2)
			}
			violations = append(violations, v...)
		}
	}
	// Exported-symbol coverage: the public facade and the shared interface
	// package every summary implements.
	for _, dir := range []string{".", "internal/summary", "internal/mlq", "internal/req", "internal/fo", "internal/encoding", "internal/cluster"} {
		v, err := checkExportedDocs(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "checkdocs: %v\n", err)
			os.Exit(2)
		}
		violations = append(violations, v...)
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Println(v)
		}
		fmt.Printf("checkdocs: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("checkdocs: all packages and exported facade symbols documented")
}

// packageDirs returns every directory under root that contains at least one
// non-test .go file.
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
		return nil
	})
	return out, err
}

// checkPackageComment reports a violation when no non-test file of the
// package in dir carries a package doc comment.
func checkPackageComment(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", dir, err)
	}
	var out []string
	for name, pkg := range pkgs {
		documented := false
		for _, f := range pkg.Files {
			if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
				documented = true
				break
			}
		}
		if !documented {
			out = append(out, fmt.Sprintf("%s: package %s has no package doc comment", dir, name))
		}
	}
	return out, nil
}

// checkExportedDocs reports a violation for every exported top-level
// declaration in dir's package that has no doc comment. Grouped var/const
// blocks count as documented when the block itself is.
func checkExportedDocs(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", dir, err)
	}
	var out []string
	for _, pkg := range pkgs {
		for fname, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						continue // methods: the type's doc is the contract
					}
					if d.Name.IsExported() && d.Doc == nil {
						out = append(out, fmt.Sprintf("%s: exported function %s is undocumented", fname, d.Name.Name))
					}
				case *ast.GenDecl:
					if d.Doc != nil {
						continue // documented block covers its specs
					}
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && s.Doc == nil {
								out = append(out, fmt.Sprintf("%s: exported type %s is undocumented", fname, s.Name.Name))
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && s.Doc == nil && s.Comment == nil {
									out = append(out, fmt.Sprintf("%s: exported value %s is undocumented", fname, n.Name))
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}
