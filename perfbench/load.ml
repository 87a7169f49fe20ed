(* Open-loop load: the serve-mixed schedule sent over a live server's
   socket by one thread with one connection per generator connection, or
   replayed in process against [Bfly_serve.Server] with spans around each
   layer call. Latency runs from each request's due time, so a stall
   charges every request it delays; how late the generator itself sent is
   recorded separately. *)

module Server = Bfly_serve.Server
module Protocol = Bfly_serve.Protocol
module Span = Spans

type outcome = {
  phase : Mix.phase;
  sent : int array;  (** ns since the phase start; -1 when never sent *)
  recv : int array;  (** ns since the phase start; -1 when no response *)
  resp : string array;
  drain_ns : int;  (** last response minus last due time *)
}

let now = Bfly_obs.Span.now_ns

(* ---- over a socket ---- *)

let connect path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  fd

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Send one phase on [fds] and collect every response. Responses come
   back in request order per connection, so each is matched to the oldest
   unanswered request of its connection. *)
(* A phase whose responses have not all arrived this long after it began
   ends there; the missing ones count as failed. *)
let phase_timeout_s = 60.

let socket_phase fds (phase : Mix.phase) =
  let n = Array.length phase.reqs in
  let sent = Array.make n (-1) and recv = Array.make n (-1) in
  let resp = Array.make n "" in
  let nc = Array.length fds in
  let waiting = Array.init nc (fun _ -> Queue.create ()) in
  let bufs = Array.init nc (fun _ -> Buffer.create 4096) in
  let chunk = Bytes.create 65536 in
  let t0 = now () in
  let deadline = t0 + int_of_float (phase_timeout_s *. 1e9) in
  let next = ref 0 and got = ref 0 and closed = ref false in
  while !got < n && (not !closed) && now () < deadline do
    let t = now () - t0 in
    while !next < n && phase.reqs.(!next).due_ns <= t do
      let r = phase.reqs.(!next) in
      sent.(!next) <- now () - t0;
      write_all fds.(r.conn) (r.line ^ "\n");
      Queue.push !next waiting.(r.conn);
      incr next
    done;
    let wait_s =
      if !next < n then
        float (max 0 (phase.reqs.(!next).due_ns - (now () - t0))) /. 1e9
      else 0.05
    in
    let ready, _, _ =
      try Unix.select (Array.to_list fds) [] [] wait_s
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let c =
          let rec find i = if fds.(i) == fd then i else find (i + 1) in
          find 0
        in
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k = 0 then closed := true
        else begin
          let at = now () - t0 in
          Buffer.add_subbytes bufs.(c) chunk 0 k;
          let s = Buffer.contents bufs.(c) in
          let parts = String.split_on_char '\n' s in
          let rec take = function
            | [ rest ] ->
                Buffer.clear bufs.(c);
                Buffer.add_string bufs.(c) rest
            | line :: tl ->
                (match Queue.take_opt waiting.(c) with
                | Some i ->
                    recv.(i) <- at;
                    resp.(i) <- line;
                    incr got
                | None -> ());
                take tl
            | [] -> ()
          in
          take parts
        end)
      ready
  done;
  let last_due = if n = 0 then 0 else phase.reqs.(n - 1).due_ns in
  let last_recv = Array.fold_left max 0 recv in
  { phase; sent; recv; resp; drain_ns = last_recv - last_due }

(* ---- in process, traced ---- *)

type replay = {
  outcomes : outcome list;
  queue_wait : int list;  (** ns, submit to [take_batch], per request *)
  batch_ns : int list;  (** [execute_batch] per batch *)
  batch_width : int list;  (** requests answered per batch *)
}

let req_of_id id =
  if String.length id > 1 && id.[0] = 'q' then
    Option.value ~default:(-1)
      (int_of_string_opt (String.sub id 1 (String.length id - 1)))
  else -1

(* Replay [phases] against an in-process server with [workers] domains
   pairing [Server.take_batch] with [Server.execute_batch]. With a live
   recorder, every request gets spans [protocol.parse_request],
   [server.submit] and [queue_wait] under a [request] root, and every
   batch a [server.execute_batch] span. *)
let in_process ~tr ~workers (phases : Mix.phase list) =
  let srv = Server.create ~queue_bound:1024 () in
  let clients = Array.init Mix.connections (fun _ -> Server.client srv) in
  let m = Mutex.create () and cv = Condition.create () in
  let stop = ref false in
  let waits = ref [] and batches = ref [] and widths = ref [] in
  (* request idx -> its root span, so worker-side spans can name it *)
  let roots = Hashtbl.create 4096 in
  let worker () =
    let rec loop () =
      Mutex.lock m;
      while Server.queued_batches srv = 0 && not !stop do
        Condition.wait cv m
      done;
      let quit = !stop && Server.queued_batches srv = 0 in
      Mutex.unlock m;
      if not quit then begin
        (match Server.take_batch srv with
        | Some b ->
            let taken = now () in
            let ws =
              List.map
                (fun (w : Bfly_serve.Batcher.waiter) ->
                  (req_of_id w.id, w.t0))
                b.waiters
            in
            let t0 = now () in
            Server.execute_batch srv b;
            let t1 = now () in
            Mutex.lock m;
            List.iter
              (fun (req, wt0) ->
                waits := (taken - wt0) :: !waits;
                let parent = Option.value (Hashtbl.find_opt roots req) ~default:(-1) in
                Span.record tr ~parent ~req "queue_wait" wt0 taken)
              ws;
            batches := (t1 - t0) :: !batches;
            widths := List.length ws :: !widths;
            Span.record tr ~req:(fst (List.hd ws)) "server.execute_batch" t0 t1;
            Mutex.unlock m
        | None -> ());
        loop ()
      end
    in
    loop ()
  in
  let roots_add req sid =
    Mutex.lock m;
    Hashtbl.replace roots req sid;
    Mutex.unlock m
  in
  let doms = List.init workers (fun _ -> Domain.spawn worker) in
  let run_phase (phase : Mix.phase) =
    let n = Array.length phase.reqs in
    let sent = Array.make n (-1) and recv = Array.make n (-1) in
    let resp = Array.make n "" in
    let left = ref n in
    let dm = Mutex.create () and done_cv = Condition.create () in
    let t0 = now () in
    Array.iteri
      (fun i (r : Mix.req) ->
        let wait = r.due_ns - (now () - t0) in
        if wait > 0 then Unix.sleepf (float wait /. 1e9);
        sent.(i) <- now () - t0;
        let req = r.idx in
        let parent = Span.reserve tr in
        roots_add req parent;
        ignore
          (Span.within tr ~parent ~req "protocol.parse_request" (fun _ ->
               Protocol.parse_request ~default_id:"q" r.line));
        Span.within tr ~parent ~req "server.submit" (fun _ ->
            Server.submit srv ~client:clients.(r.conn)
              ~reply:(fun line ->
                Mutex.lock dm;
                recv.(i) <- now () - t0;
                resp.(i) <- line;
                decr left;
                if !left = 0 then Condition.signal done_cv;
                Mutex.unlock dm)
              r.line);
        Mutex.lock m;
        Condition.broadcast cv;
        Mutex.unlock m)
      phase.reqs;
    Mutex.lock dm;
    while !left > 0 do
      Condition.wait done_cv dm
    done;
    Mutex.unlock dm;
    Array.iteri
      (fun i (r : Mix.req) ->
        Span.record tr ~sid:(Hashtbl.find roots r.idx) ~req:r.idx "request"
          (t0 + r.due_ns) (t0 + recv.(i)))
      phase.reqs;
    let last_due = if n = 0 then 0 else phase.reqs.(n - 1).due_ns in
    {
      phase;
      sent;
      recv;
      resp;
      drain_ns = Array.fold_left max 0 recv - last_due;
    }
  in
  let outcomes = List.map run_phase phases in
  Mutex.lock m;
  stop := true;
  Condition.broadcast cv;
  Mutex.unlock m;
  List.iter Domain.join doms;
  {
    outcomes;
    queue_wait = !waits;
    batch_ns = !batches;
    batch_width = !widths;
  }
