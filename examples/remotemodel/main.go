// Remote-model quickstart: explain a cost model that lives in another
// process. Start a server (any comet-serve is a cost-model backend via
// its POST /v1/predict endpoint):
//
//	comet-serve -addr :8372 -preload uica
//
// then run this example:
//
//	go run ./examples/remotemodel -url http://localhost:8372
//
// The explainer runs here; every model query travels over HTTP in
// batches and lands in the server's shared prediction cache. Because the
// remote model reports the backend's canonical name and predictions are
// exact, the explanation is byte-identical to a local Explain at the
// same seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"github.com/comet-explain/comet"
)

func main() {
	url := flag.String("url", "http://localhost:8372", "comet-serve base URL")
	model := flag.String("model", "uica", "model spec for the backend to resolve")
	flag.Parse()

	// Equivalent registry form: comet.ResolveModelString("remote@" + *url + "?model=" + *model)
	rm, err := comet.DialRemoteModel(*url, comet.RemoteModelOptions{Model: *model})
	if err != nil {
		log.Fatalf("dial %s: %v (is comet-serve running?)", *url, err)
	}
	fmt.Printf("dialed %s: backend model %s on %v (spec %s, ε=%g)\n",
		*url, rm.Name(), rm.Arch(), rm.RemoteSpec(), rm.Epsilon())

	block := comet.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	cfg := comet.DefaultConfig()
	cfg.Epsilon = rm.Epsilon()

	expl, err := comet.NewExplainer(rm, cfg).
		ExplainContext(context.Background(), block, comet.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(expl)
	fmt.Printf("%d queries, %.0f%% served by the local cache; the rest crossed the network in batches\n",
		expl.Queries, 100*expl.CacheHitRate())
}
