module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset
module Metrics = Bfly_obs.Metrics
module Cancel = Bfly_resil.Cancel
module Cache = Bfly_cache.Store
module Codec = Bfly_cache.Codec
module Fp = Bfly_cache.Fingerprint

let default_rng () = Random.State.make [| 0x5eed |]

(* Results depend on the seed, never on the domain count or completion
   order. *)
let derive_seeds rng k =
  let seeds = Array.make k 0 in
  for i = 0 to k - 1 do
    seeds.(i) <- Random.State.bits rng
  done;
  seeds

let cut_encode (c, side) =
  [ ("value", Codec.Int c); ("witness", Codec.bits side) ]

let cut_decode n payload =
  match
    (Codec.get_int payload "value", Codec.get_bits payload "witness" ~capacity:n)
  with
  | Some c, Some side -> Some (c, side)
  | _ -> None

let cut_verify g (c, side) =
  let n = G.n_nodes g in
  let card = Bitset.cardinal side in
  card >= n / 2
  && card <= (n + 1) / 2
  && Bfly_graph.Traverse.boundary_edges g side = c

let cached ~kernel ~salt ~params ~seeds ~cancel g compute =
  let key =
    Bfly_cache.Key.make ~solver:("cuts.heuristics." ^ kernel) ~salt ~params
      ~fingerprint:(Fp.int_array (Fp.graph Fp.seed g) seeds)
  in
  match
    Cache.lookup ~key ~decode:(cut_decode (G.n_nodes g)) ~verify:(cut_verify g)
  with
  | Some v -> v
  | None ->
      let v = compute () in
      (* a result degraded by cancellation is still a valid cut, but it must
         not poison the cache: a later uninterrupted run would be served the
         degraded value as if it were the converged one *)
      if not (Cancel.stop cancel) then Cache.put ~key ~encode:cut_encode v;
      v

(* Lowest capacity wins; equal capacities keep the earliest restart, like a
   sequential first-wins loop. *)
let by_capacity (c1, _) (c2, _) = Stdlib.compare c1 c2

let run ~kernel ~salt ~params ?rng ~restarts ~cancel g restart =
  let rng = match rng with Some r -> r | None -> default_rng () in
  Bfly_obs.Span.time ~name:("heuristics." ^ kernel) @@ fun () ->
  let seeds = derive_seeds rng restarts in
  cached ~kernel ~salt ~params ~seeds ~cancel g @@ fun () ->
  let c, side =
    Bfly_graph.Parallel.best_of ~compare:by_capacity ~restarts (fun i ->
        restart seeds.(i))
  in
  Metrics.add (Metrics.counter ("heuristics." ^ kernel ^ ".restarts")) restarts;
  Metrics.set
    (Metrics.gauge ("heuristics." ^ kernel ^ ".best_capacity"))
    (float_of_int c);
  (c, side)
