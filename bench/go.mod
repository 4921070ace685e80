// The benchmark harness is a module of its own so the repository's
// `go build ./... && go test ./...` never depends on it; it reaches the
// system under test through the replace below.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
