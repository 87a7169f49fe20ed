module Doc = Bfly_obs.Doc

let counters =
  [
    "exact.bb.nodes"; "cache.hit"; "cache.miss"; "ml.levels"; "ml.refine.moves";
    "fabric.builds"; "constructions.dimension.cuts"; "product.sandwich.checks";
    "campaign.instances"; "campaign.oracle.checks";
  ]

let config =
  [
    Doc.config "schema" ~hint:"regenerate the baseline with --json";
    Doc.config "mode" ~hint:"pass or drop --smoke to match";
    Doc.config "domains" ~hint:"set BFLY_DOMAINS to match";
  ]

let schema =
  config
  @ [
      Doc.rows "experiments" ~key:[ "name" ] [ Doc.exact "output" ];
      Doc.exact "check/ok";
      Doc.exact "check";
    ]
  @ List.map (fun c -> Doc.exact ("gate/" ^ c)) counters
