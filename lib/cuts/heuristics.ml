module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset
module Parallel = Bfly_graph.Parallel
module Metrics = Bfly_obs.Metrics
module Span = Bfly_obs.Span
module State = Cut.State
module Cancel = Bfly_resil.Cancel

let random_balanced_side ~rng n =
  let perm = Bfly_graph.Perm.random ~rng n in
  let side = Bitset.create n in
  for i = 0 to (n / 2) - 1 do
    Bitset.add side (Bfly_graph.Perm.apply perm i)
  done;
  side

(* ------------------------------------------------------------------ *)
(* Kernighan–Lin                                                       *)
(* ------------------------------------------------------------------ *)

let bpw = Bitset.bits_per_word
let kl_arena = Arena.create ()

(* One KL improvement pass: n/2 best-gain swap steps, rolled back to the
   cheapest prefix. The candidate picks are word-parallel scans: eligible
   movers of a side are the bits of (side-words, complemented for B) masked
   by the negated lock words, extracted lowest-first so index order — and
   therefore first-wins tie-breaking — matches the naive ascending scan
   exactly. The second pick subtracts twice the multiplicity of edges to
   the first node; those multiplicities are scattered into a scratch array
   from the CSR row once per step instead of being recounted per
   candidate. *)
let kl_pass g st =
  let n = G.n_nodes g in
  let offsets = G.csr_offsets g and adj = G.csr_adj g in
  let locked = Arena.set kl_arena ~slot:0 n in
  let lw = Bitset.unsafe_words locked in
  let sw = State.side_words st in
  let gains = State.gains_array st in
  let amult = Arena.ints kl_arena ~slot:0 n in
  let n_swaps = n / 2 in
  let swap_a = Arena.raw_ints kl_arena ~slot:1 (n_swaps + 1) in
  let swap_b = Arena.raw_ints kl_arena ~slot:2 (n_swaps + 1) in
  let nw = (n + bpw - 1) / bpw in
  let last_mask =
    let r = n mod bpw in
    if r = 0 then -1 else (1 lsl r) - 1
  in
  let start_cap = State.capacity st in
  let best_cap = ref start_cap in
  let best_len = ref 0 in
  let count = ref 0 in
  (* best unlocked node of A by gain (first index wins ties) *)
  let pick_a () =
    let best = ref (-1) and bg = ref min_int in
    for w = 0 to nw - 1 do
      let valid = if w = nw - 1 then last_mask else -1 in
      let bits =
        ref (Array.unsafe_get sw w land lnot (Array.unsafe_get lw w) land valid)
      in
      while !bits <> 0 do
        let x = !bits in
        let v = (w * bpw) + Bitset.popcount_word ((x land -x) - 1) in
        let gv = Array.unsafe_get gains v in
        if gv > !bg then begin
          bg := gv;
          best := v
        end;
        bits := x land (x - 1)
      done
    done;
    !best
  in
  (* best unlocked node of B by gain adjusted for edges to [a] (already
     scattered, doubled, into [amult]) *)
  let pick_b () =
    let best = ref (-1) and bg = ref min_int in
    for w = 0 to nw - 1 do
      let valid = if w = nw - 1 then last_mask else -1 in
      let bits =
        ref
          (lnot (Array.unsafe_get sw w)
          land lnot (Array.unsafe_get lw w)
          land valid)
      in
      while !bits <> 0 do
        let x = !bits in
        let v = (w * bpw) + Bitset.popcount_word ((x land -x) - 1) in
        let gv = Array.unsafe_get gains v - Array.unsafe_get amult v in
        if gv > !bg then begin
          bg := gv;
          best := v
        end;
        bits := x land (x - 1)
      done
    done;
    !best
  in
  (try
     for step = 1 to n_swaps do
       let a = pick_a () in
       if a < 0 then raise Exit;
       for i = offsets.(a) to offsets.(a + 1) - 1 do
         let u = Array.unsafe_get adj i in
         amult.(u) <- amult.(u) + 2
       done;
       let b = pick_b () in
       for i = offsets.(a) to offsets.(a + 1) - 1 do
         amult.(Array.unsafe_get adj i) <- 0
       done;
       if b < 0 then raise Exit;
       State.flip st a;
       State.flip st b;
       Bitset.add locked a;
       Bitset.add locked b;
       swap_a.(!count) <- a;
       swap_b.(!count) <- b;
       incr count;
       if State.capacity st < !best_cap then begin
         best_cap := State.capacity st;
         best_len := step
       end
     done
   with Exit -> ());
  (* roll back to the best prefix *)
  for s = !count - 1 downto !best_len do
    State.flip st swap_a.(s);
    State.flip st swap_b.(s)
  done;
  !best_cap < start_cap

let kernighan_lin ?rng ?(restarts = 4) ?cancel g =
  let cancel = Cancel.resolve cancel in
  Restarts.run ~kernel:"kl" ~salt:"kl/1"
    ~params:[ ("restarts", string_of_int restarts) ]
    ?rng ~restarts ~cancel g
  @@ fun seed ->
  let rng = Random.State.make [| 0x6b6c; seed |] in
  let st = State.create g (random_balanced_side ~rng (G.n_nodes g)) in
  let improving = ref true in
  while !improving && not (Cancel.stop cancel) do
    improving := kl_pass g st
  done;
  (State.capacity st, State.side st)

(* ------------------------------------------------------------------ *)
(* Fiduccia–Mattheyses (heap-based single-node moves, tolerance 1)     *)
(* ------------------------------------------------------------------ *)

let fm_arena = Arena.create ()

(* One FM pass: single-node moves popped from a flat three-array binary
   max-heap (keys / nodes / stamps in parallel arrays — no tuple boxing),
   stale entries lapsed by stamp, rolled back to the best balanced prefix.
   The sift logic mirrors the boxed heap this replaces comparison for
   comparison, so the pop order — including ties — is unchanged. Heap
   storage is arena scratch pre-sized to the worst case (n initial pushes
   plus one per adjacency arc), so a pass never reallocates. *)
let fm_pass g st =
  let n = G.n_nodes g in
  let offsets = G.csr_offsets g and adj = G.csr_adj g in
  let start_cap = State.capacity st in
  let locked = Arena.ints fm_arena ~slot:0 n in
  let stamp = Arena.ints fm_arena ~slot:1 n in
  let moves = Arena.raw_ints fm_arena ~slot:2 (n + 1) in
  let heap_cap = n + (2 * G.n_edges g) + 1 in
  let hk = Arena.raw_ints fm_arena ~slot:3 heap_cap in
  let hv = Arena.raw_ints fm_arena ~slot:4 heap_cap in
  let hs = Arena.raw_ints fm_arena ~slot:5 heap_cap in
  let hlen = ref 0 in
  let gains = State.gains_array st in
  let push v =
    let i = ref !hlen in
    hk.(!i) <- Array.unsafe_get gains v;
    hv.(!i) <- v;
    hs.(!i) <- Array.unsafe_get stamp v;
    incr hlen;
    while
      !i > 0 && Array.unsafe_get hk ((!i - 1) / 2) < Array.unsafe_get hk !i
    do
      let p = (!i - 1) / 2 and c = !i in
      let tk = hk.(p) and tv = hv.(p) and ts = hs.(p) in
      hk.(p) <- hk.(c);
      hv.(p) <- hv.(c);
      hs.(p) <- hs.(c);
      hk.(c) <- tk;
      hv.(c) <- tv;
      hs.(c) <- ts;
      i := p
    done
  in
  for v = 0 to n - 1 do
    push v
  done;
  let half = n / 2 in
  let best_cap = ref start_cap in
  let best_len = ref 0 in
  let steps = ref 0 in
  let continue = ref true in
  while !continue do
    if !hlen = 0 then continue := false
    else begin
      let v = hv.(0) and s = hs.(0) in
      let len = !hlen - 1 in
      hlen := len;
      hk.(0) <- hk.(len);
      hv.(0) <- hv.(len);
      hs.(0) <- hs.(len);
      let i = ref 0 in
      let sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < len && Array.unsafe_get hk l > Array.unsafe_get hk !m then
          m := l;
        if r < len && Array.unsafe_get hk r > Array.unsafe_get hk !m then
          m := r;
        if !m = !i then sifting := false
        else begin
          let a = !m and b = !i in
          let tk = hk.(a) and tv = hv.(a) and ts = hs.(a) in
          hk.(a) <- hk.(b);
          hv.(a) <- hv.(b);
          hs.(a) <- hs.(b);
          hk.(b) <- tk;
          hv.(b) <- tv;
          hs.(b) <- ts;
          i := !m
        end
      done;
      if Array.unsafe_get locked v = 0 && s = Array.unsafe_get stamp v then begin
        (* balance: after moving v, side sizes must stay within one of n/2 *)
        let sa = State.side_size st in
        let sa' = if State.in_side st v then sa - 1 else sa + 1 in
        if abs (sa' - half) <= 1 then begin
          State.flip st v;
          Array.unsafe_set locked v 1;
          moves.(!steps) <- v;
          incr steps;
          for i = offsets.(v) to offsets.(v + 1) - 1 do
            let w = Array.unsafe_get adj i in
            if Array.unsafe_get locked w = 0 then begin
              Array.unsafe_set stamp w (Array.unsafe_get stamp w + 1);
              push w
            end
          done;
          (* only prefixes with bisection sizes (⌊n/2⌋ or ⌈n/2⌉) are
             candidates for rollback *)
          if State.capacity st < !best_cap && sa' >= half && sa' <= n - half
          then begin
            best_cap := State.capacity st;
            best_len := !steps
          end
        end
      end
    end
  done;
  for s = !steps - 1 downto !best_len do
    State.flip st moves.(s)
  done;
  !best_cap < start_cap

let fm_descend ?cancel g st =
  let improving = ref true in
  while !improving && not (Cancel.stop cancel) do
    improving := fm_pass g st
  done

let fiduccia_mattheyses ?rng ?(restarts = 4) ?cancel g =
  let cancel = Cancel.resolve cancel in
  Restarts.run ~kernel:"fm" ~salt:"fm/1"
    ~params:[ ("restarts", string_of_int restarts) ]
    ?rng ~restarts ~cancel g
  @@ fun seed ->
  let rng = Random.State.make [| 0x666d; seed |] in
  let st = State.create g (random_balanced_side ~rng (G.n_nodes g)) in
  fm_descend ?cancel g st;
  (State.capacity st, State.side st)

(* ------------------------------------------------------------------ *)
(* Spectral                                                            *)
(* ------------------------------------------------------------------ *)

let spectral g =
  (* fully deterministic (fixed start vector, fixed iteration count):
     keyed on the graph alone. Deliberately not cancellable — it is cheap
     and its determinism anchors the portfolio even under tight budgets. *)
  Restarts.cached ~kernel:"spectral" ~salt:"spectral/1" ~params:[]
    ~seeds:[||] ~cancel:None g
  @@ fun () ->
  let n = G.n_nodes g in
  let c = float_of_int (G.max_degree g + 1) in
  let v = Array.init n (fun i -> Float.of_int ((i * 2654435761) land 0xffff) -. 32768.) in
  let tmp = Array.make n 0. in
  let deflate x =
    let mean = Array.fold_left ( +. ) 0. x /. float_of_int n in
    Array.iteri (fun i xi -> x.(i) <- xi -. mean) x
  in
  let normalize x =
    let norm = sqrt (Array.fold_left (fun a xi -> a +. (xi *. xi)) 0. x) in
    if norm > 0. then Array.iteri (fun i xi -> x.(i) <- xi /. norm) x
  in
  deflate v;
  normalize v;
  for _ = 1 to 200 + (4 * int_of_float (sqrt (float_of_int n))) do
    (* tmp <- (cI - L) v = (c - deg) v + sum of neighbors *)
    for i = 0 to n - 1 do
      tmp.(i) <- (c -. float_of_int (G.degree g i)) *. v.(i)
    done;
    G.iter_edges g (fun a b ->
        tmp.(a) <- tmp.(a) +. v.(b);
        tmp.(b) <- tmp.(b) +. v.(a));
    Array.blit tmp 0 v 0 n;
    deflate v;
    normalize v
  done;
  (* median split: the n/2 smallest coordinates form side A *)
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare v.(i) v.(j)) idx;
  let side = Bitset.create n in
  for r = 0 to (n / 2) - 1 do
    Bitset.add side idx.(r)
  done;
  let st = State.create g side in
  fm_descend g st;
  (State.capacity st, State.side st)

(* ------------------------------------------------------------------ *)
(* Simulated annealing                                                 *)
(* ------------------------------------------------------------------ *)

(* The cooling schedule is a pure function of the step budget: temperature
   at step k is t0 * (t1/t0)^(k/steps), and it only gates uphill proposals.
   Each restart used to evaluate that pow on every step; instead a
   per-(domain, steps) table caches each step's temperature the first time
   an uphill proposal needs it (0.0 marks an unfilled entry — real
   temperatures are strictly positive). One-shot runs skip the pow on every
   downhill step; restarts and repeated runs reuse the filled table.
   Entries are computed by the exact expression the inline code used, so
   every acceptance test sees bit-identical temperatures. *)
let sa_t0 = 3.0
let sa_t1 = 0.05

let sa_schedule_slot : (int * float array) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let sa_schedule steps =
  let slot = Domain.DLS.get sa_schedule_slot in
  match !slot with
  | Some (s, temps) when s = steps -> temps
  | _ ->
      let temps = Array.make steps 0.0 in
      slot := Some (steps, temps);
      temps

let anneal_once ?cancel ~rng ~steps g =
  let n = G.n_nodes g in
  let offsets = G.csr_offsets g and adj = G.csr_adj g in
  let temps = sa_schedule steps in
  let side = random_balanced_side ~rng n in
  let st = State.create g side in
  let gains = State.gains_array st in
  (* populated in descending node order (matching the reversed accumulation
     lists this replaces), so a given rng draw picks the same node *)
  let na = State.side_size st in
  let a_arr = Array.make (max na 1) 0 and b_arr = Array.make (max (n - na) 1) 0 in
  let ai = ref 0 and bi = ref 0 in
  for v = n - 1 downto 0 do
    if State.in_side st v then begin
      a_arr.(!ai) <- v;
      incr ai
    end
    else begin
      b_arr.(!bi) <- v;
      incr bi
    end
  done;
  (* a_arr.(i) is some node currently in A; maintained as we swap *)
  let cap = ref (State.capacity st) in
  let best_cap = ref !cap in
  let best_side = ref (State.side st) in
  let la = na and lb = n - na in
  let fsteps = float_of_int steps in
  let sw = State.side_words st in
  (* move node v to the other side: the word-and-gain half of State.flip,
     inlined; the swap's capacity change is [delta], accounted by the
     caller, and a swap never changes the side sizes *)
  let flip v =
    let wv = Bitset.word_index v and bv = Bitset.bit_index v in
    let old_word = Array.unsafe_get sw wv in
    let wa = (old_word lsr bv) land 1 in
    Array.unsafe_set gains v (-Array.unsafe_get gains v);
    Array.unsafe_set sw wv (old_word lxor (1 lsl bv));
    for i = Array.unsafe_get offsets v to Array.unsafe_get offsets (v + 1) - 1
    do
      let w = Array.unsafe_get adj i in
      let mw = (Array.unsafe_get sw (Bitset.word_index w) lsr (Bitset.bit_index w)) land 1 in
      Array.unsafe_set gains w
        (Array.unsafe_get gains w + 2 - (4 * (mw lxor wa)))
    done
  in
  (try
  for step = 0 to steps - 1 do
    if step land 1023 = 1023 && Cancel.stop cancel then raise Exit;
    let ia = Random.State.int rng la in
    let ib = Random.State.int rng lb in
    let a = Array.unsafe_get a_arr ia and b = Array.unsafe_get b_arr ib in
    let mult = ref 0 in
    for i = Array.unsafe_get offsets a to Array.unsafe_get offsets (a + 1) - 1
    do
      if Array.unsafe_get adj i = b then incr mult
    done;
    let delta =
      -(Array.unsafe_get gains a + Array.unsafe_get gains b - (2 * !mult))
    in
    (* the rng draw happens iff delta > 0, exactly as the short-circuit
       always ordered it *)
    if
      delta <= 0
      ||
      let temp =
        let t = Array.unsafe_get temps step in
        if t > 0.0 then t
        else begin
          let t =
            sa_t0 *. ((sa_t1 /. sa_t0) ** (float_of_int step /. fsteps))
          in
          Array.unsafe_set temps step t;
          t
        end
      in
      Random.State.float rng 1.0 < exp (-.float_of_int delta /. temp)
    then begin
      flip a;
      flip b;
      Array.unsafe_set a_arr ia b;
      Array.unsafe_set b_arr ib a;
      cap := !cap + delta;
      if !cap < !best_cap then begin
        best_cap := !cap;
        best_side := State.side st
      end
    end
  done
  with Exit -> ());
  (!best_cap, !best_side)

let annealing ?rng ?steps ?(restarts = 1) ?cancel g =
  let cancel = Cancel.resolve cancel in
  let steps =
    match steps with Some s -> s | None -> min 2_000_000 (400 * G.n_nodes g)
  in
  Restarts.run ~kernel:"sa" ~salt:"sa/1"
    ~params:
      [ ("restarts", string_of_int restarts); ("steps", string_of_int steps) ]
    ?rng ~restarts ~cancel g
  @@ fun seed ->
  anneal_once ?cancel ~rng:(Random.State.make [| 0x5a5a; seed |]) ~steps g

let best_of ?rng ?cancel g =
  let rng = match rng with Some r -> r | None -> Restarts.default_rng () in
  (* resolve the ambient token once, here, so every member sees the same
     token even when run on pool domains (the ambient slot is global, but
     resolving eagerly keeps the portfolio's behavior independent of when
     each member happens to start) *)
  let cancel = Cancel.resolve cancel in
  Span.time ~name:"heuristics.portfolio" @@ fun () ->
  let n = G.n_nodes g in
  (* each method gets its own rng seeded up front, so the portfolio can run
     its members concurrently (each member also parallelizes its restarts
     internally — the pool handles nested batches) without the shared-rng
     sequencing the sequential loop used to impose *)
  let seeds = Restarts.derive_seeds rng 4 in
  let seeded i = Random.State.make [| 0xbe57; seeds.(i) |] in
  let candidates =
    if n <= 2000 then
      [|
        ("kernighan-lin", fun () -> kernighan_lin ~rng:(seeded 0) ?cancel g);
        ( "fiduccia-mattheyses",
          fun () -> fiduccia_mattheyses ~rng:(seeded 1) ?cancel g );
        ("spectral", fun () -> spectral g);
        ("annealing", fun () -> annealing ~rng:(seeded 3) ?cancel g);
      |]
    else
      [|
        ( "fiduccia-mattheyses",
          fun () -> fiduccia_mattheyses ~rng:(seeded 1) ~restarts:2 ?cancel g );
        ("spectral", fun () -> spectral g);
      |]
  in
  let c, side, name =
    Parallel.best_of
      ~compare:(fun (c1, _, _) (c2, _, _) -> Stdlib.compare c1 c2)
      ~restarts:(Array.length candidates)
      (fun i ->
        let name, run = candidates.(i) in
        let c, side = run () in
        (c, side, name))
  in
  Metrics.set (Metrics.gauge "heuristics.portfolio.best_capacity")
    (float_of_int c);
  (c, side, name)
