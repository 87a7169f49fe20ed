(* The serve-mixed request schedule: a pure function of the workload seed
   and the run length. Arrivals are paced at each phase's fixed rate with
   seeded jitter; each request goes to one of the generator's
   connections. *)

type cls = Fresh | Popular | Stats | Probe of int

type req = {
  idx : int;  (** position in the whole run; the request id is [q<idx>] *)
  due_ns : int;  (** due time, from the start of its phase *)
  conn : int;
  cls : cls;
  line : string;
}

type phase = { pname : string; rate : float; reqs : req array }

(* Absolute request rates (req/s), chosen once on the seed commit and
   never re-derived, so a faster server shows lower latency at the same
   rates, not more load. On a 2-vCPU machine at two workers the seed
   commit's throughput saturates near 700 req/s, its p99 reaches
   [latency_limit_ms] near 200 req/s, and above that knee its latency
   spreads from run to run by more than the benchmark's bounds. [nominal]
   is 40% and [peak] 68% of the knee. *)
let ladder = [ ("nominal", 80.); ("peak", 136.) ]

(* A phase passes when its p99 stays under this limit and its backlog
   drains within it once sending stops. *)
let latency_limit_ms = 100.

let connections = 2
let min_phase_requests = 1000

(* Requests per timed phase: at least [min_phase_requests], so p99 has at
   least ten samples beyond it; a run of [seconds] spends about 40% of
   them on the nominal phase and 45% on the peak phase, whose tail is the
   noisier. *)
let phase_requests ~seconds (pname, rate) =
  let share = if pname = "nominal" then 0.4 else 0.45 in
  max min_phase_requests (int_of_float (rate *. float seconds *. share))

let bw ?n solver net seed =
  Printf.sprintf "\"job\":\"bw\",\"solver\":%S,\"network\":%S%s,\"seed\":%d"
    solver net
    (match n with Some n -> Printf.sprintf ",\"n\":%d" n | None -> "")
    seed

(* Fresh-key templates (weight, body given a never-repeated seed): small
   and medium solves that miss the cache and store their result, plus an
   uncached node-expansion anneal. *)
let fresh =
  [
    (3, bw "kl" "butterfly" ~n:16);
    (3, bw "kl" "butterfly" ~n:32);
    (2, bw "kl" "wrapped" ~n:32);
    (1, bw "kl" "butterfly" ~n:64);
    (2, bw "kl" "mesh:8x8");
    (2, bw "fm" "butterfly" ~n:64);
    (2, bw "fm" "torus:4x4x4");
    (2, bw "fm" "ccc" ~n:32);
    (1, bw "fm" "butterfly" ~n:128);
    (1, bw "sa" "butterfly" ~n:16);
    (2, bw "ml" "butterfly" ~n:32);
    (1, bw "ml" "butterfly" ~n:64);
    (1, bw "ml" "ccc" ~n:64);
    (2, bw "ml" "mesh:8x8");
    (2, bw "ml" "torus:4x4x4");
    (2, bw "ml" "bcube:4x2");
    (1, bw "ml" "product:path4xring4xk4");
    ( 1,
      fun seed ->
        Printf.sprintf
          "\"job\":\"ne\",\"network\":\"butterfly\",\"n\":8,\"k\":4,\"seed\":%d"
          seed );
  ]

(* The popular set, most popular first; draws follow 1/rank. The warm-up
   sends each once, so in timed phases they hit the cache (verify-on-hit)
   or coalesce with a twin in flight. *)
let popular =
  [
    "\"job\":\"mos\",\"j\":16";
    bw "spectral" "butterfly" ~n:128 1;
    bw "kl" "butterfly" ~n:64 1;
    "\"job\":\"ee\",\"network\":\"butterfly\",\"n\":8,\"k\":4,\"exact\":true";
    bw "ml" "butterfly" ~n:512 1;
    bw "exact" "mesh:4x4" 1;
    "\"job\":\"mos\",\"j\":64";
    bw "spectral" "butterfly" ~n:256 1;
    "\"job\":\"campaign\",\"degree\":3,\"sizes\":[16,32],\"seeds\":4";
    "\"job\":\"ne\",\"network\":\"butterfly\",\"n\":8,\"k\":4,\"exact\":true";
    bw "fm" "butterfly" ~n:256 1;
    bw "exact" "butterfly" ~n:8 1;
    "\"job\":\"ee\",\"network\":\"wrapped\",\"n\":8,\"k\":5,\"exact\":true";
    bw "ml" "mesh:16x16" 1;
    bw "sa" "butterfly" ~n:32 1;
    bw "spectral" "butterfly" ~n:512 1;
    "\"job\":\"mos\",\"j\":8";
    bw "exact" "ccc" ~n:8 1;
    "\"job\":\"ee\",\"network\":\"ccc\",\"n\":8,\"k\":4,\"exact\":true";
    "\"job\":\"campaign\",\"degree\":3,\"sizes\":[32],\"seeds\":2";
    bw "ml" "butterfly" ~n:128 1;
    bw "exact" "bcube:2x2" 1;
    "\"job\":\"mos\",\"j\":32";
    bw "spectral" "butterfly" ~n:64 1;
  ]

(* Malformed probes; their expected errors are captured on the seed
   commit into ref/serve-probes.ref. *)
let probes =
  [
    (fun id ->
      Printf.sprintf
        "{\"id\":%S,\"job\":\"bw\",\"solver\":\"nope\",\"network\":\"butterfly\",\"n\":16}"
        id);
    (fun id ->
      Printf.sprintf
        "{\"id\":%S,\"job\":\"bw\",\"solver\":\"kl\",\"network\":\"butterfly\",\"n\":12}"
        id);
    (fun id ->
      Printf.sprintf
        "{\"id\":%S,\"job\":\"campaign\",\"degree\":3,\"sizes\":[32],\"seeds\":99}"
        id);
    (fun id -> Printf.sprintf "{\"id\":%S,\"id\":%S,\"job\":\"mos\",\"j\":8}" id id);
    (fun id -> Printf.sprintf "{\"id\":%S,\"job\":\"teleport\"}" id);
  ]

let wrap idx body = Printf.sprintf "{\"id\":\"q%d\",%s}" idx body

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Deals [items] in seeded random order, reshuffling after each round. *)
let deck rng items =
  let cur = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !cur then begin
      cur := Array.copy items;
      shuffle rng !cur;
      pos := 0
    end;
    incr pos;
    !cur.(!pos - 1)

(* Every block of 100 consecutive requests holds 3 inline stats, 1 probe,
   33 fresh keys and 63 popular keys in a seeded order. Fresh templates
   (by weight) and probes are dealt from seeded decks and popular keys
   drawn by 1/rank, so seeds differ in order and keys, not in mix. *)
let block = [ (`Stats, 3); (`Probe, 1); (`Fresh, 33); (`Popular, 63) ]

type dealer = { fresh_t : unit -> int; probe_t : unit -> int; rng : Random.State.t }

let dealer rng =
  let weighted =
    Array.of_list
      (List.concat (List.mapi (fun i (w, _) -> List.init w (fun _ -> i)) fresh))
  in
  {
    fresh_t = deck rng weighted;
    probe_t = deck rng (Array.init (List.length probes) Fun.id);
    rng;
  }

let popular_rank rng =
  let n = List.length popular in
  let h = Array.init n (fun r -> 1. /. float (r + 1)) in
  let x = ref (Random.State.float rng (Array.fold_left ( +. ) 0. h)) in
  let r = ref 0 in
  while !r < n - 1 && !x >= h.(!r) do
    x := !x -. h.(!r);
    incr r
  done;
  !r

let request d ~seed idx = function
  | `Stats -> (Stats, wrap idx "\"job\":\"stats\"")
  | `Probe ->
      let p = d.probe_t () in
      (Probe p, (List.nth probes p) (Printf.sprintf "q%d" idx))
  | `Fresh ->
      let _, f = List.nth fresh (d.fresh_t ()) in
      (* never repeated within a run, and different across workload seeds *)
      (Fresh, wrap idx (f ((seed * 1_000_000) + 1000 + idx)))
  | `Popular -> (Popular, wrap idx (List.nth popular (popular_rank d.rng)))

(* [n] requests at [rate]: request [i] is due at [(i + u) / rate] with [u]
   uniform in [0, 1), a paced open loop whose jitter never lets the rate
   drift. [first] bodies are sent before any drawn request. *)
let make_phase d ~seed ~start_idx ~pname ~rate n ~first =
  let kinds =
    Array.concat
      (List.init
         ((n + 99) / 100)
         (fun _ ->
           let b =
             Array.of_list
               (List.concat_map (fun (k, c) -> List.init c (fun _ -> k)) block)
           in
           shuffle d.rng b;
           b))
  in
  let reqs =
    Array.init n (fun i ->
        let idx = start_idx + i in
        let cls, line =
          match List.nth_opt first i with
          | Some body -> (Popular, wrap idx body)
          | None -> request d ~seed idx kinds.(i)
        in
        let u = Random.State.float d.rng 1. in
        let due_ns = int_of_float ((float i +. u) /. rate *. 1e9) in
        { idx; due_ns; conn = Random.State.int d.rng connections; cls; line })
  in
  { pname; rate; reqs }

(* The whole run: an untimed warm-up at the nominal rate that sends every
   popular key once and then 200 drawn requests, followed by the timed
   phases of [ladder]. [only] keeps the warm-up and the named phases; the
   schedule of the phases kept does not change. *)
let schedule ?only ~seed ~seconds () =
  let d = dealer (Random.State.make [| 0x5e7e; seed |]) in
  let nominal = List.assoc "nominal" ladder in
  let warm =
    make_phase d ~seed ~start_idx:0 ~pname:"warmup" ~rate:nominal
      (List.length popular + 200) ~first:popular
  in
  let _, phases =
    List.fold_left
      (fun (idx, acc) (pname, rate) ->
        let n = phase_requests ~seconds (pname, rate) in
        let p = make_phase d ~seed ~start_idx:idx ~pname ~rate n ~first:[] in
        (idx + n, p :: acc))
      (Array.length warm.reqs, [ warm ])
      ladder
  in
  let phases = List.rev phases in
  match only with
  | None -> phases
  | Some names ->
      List.filter (fun p -> p.pname = "warmup" || List.mem p.pname names) phases

let cls_name = function
  | Fresh -> "fresh"
  | Popular -> "popular"
  | Stats -> "stats"
  | Probe p -> Printf.sprintf "probe%d" p

let print oc phases =
  List.iter
    (fun p ->
      Array.iter
        (fun r ->
          Printf.fprintf oc "%s\t%d\t%d\t%s\t%s\n" p.pname r.due_ns r.conn
            (cls_name r.cls) r.line)
        p.reqs)
    phases
