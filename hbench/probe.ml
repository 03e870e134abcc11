(* probe — the in-process half of the benchmark; run.py drives it.

   probe gen SEED DIR
       every workload input, built from SEED into DIR
   probe oracle MODEL HOSTS OUT
       the reference answer of every hostname in HOSTS
   probe relearn-check CORPUS EVENTS MODEL
       whether MODEL equals a batch learn of CORPUS after EVENTS
   probe load open PORT CONNS ORACLE LADDER OUT
   probe load closed PORT CONNS DEPTH SECONDS MAX_REQS ORACLE BATCH OUT
       the single-threaded HTTP load generator
   probe replay DIR WORK OUT BULK TRACED
       a workload's CLI steps in process (BULK=1: the bulk apply last,
       else a daemon's start-up), spans on or off; JSON to OUT
   probe costs DIR MODEL JOBS OUT
       per-call costs of the serving path on the workload's inputs

   Inputs are pure functions of the seed. Nothing here caches a
   program output. *)

module Io = Hoiho_itdk.Io
module Dataset = Hoiho_itdk.Dataset
module Router = Hoiho_itdk.Router
module Evolve = Hoiho_netsim.Evolve
module Prng = Hoiho_util.Prng
module Serve = Hoiho_serve.Serve
module Learned_io = Hoiho.Learned_io

let write_lines path lines =
  let oc = open_out_bin path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (if l = "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("probe: " ^ s); exit 2) fmt

(* --- gen --- *)

(* Generator parameters: quarter-scale ipv4-aug20 (~19K routers, ~30 MB
   corpus), a drift epoch migrating 3% of operators (~10 of ~330 suffix
   groups dirty), 200K fresh hostnames, 300 hot ones. run.py keys its
   input cache on this binary, so changing one regenerates the inputs. *)
let scale = 0.25
let p_migrate = 0.03
let n_fresh = 200_000
let n_hot = 300

let hostnames_of (ds : Dataset.t) =
  Array.to_list ds.Dataset.routers
  |> List.concat_map (fun (r : Router.t) -> r.Router.hostnames)

let gen seed dir =
  let config = Hoiho_netsim.Presets.ipv4_aug20 ~scale () in
  let ds, truth = Hoiho_netsim.Generate.generate { config with seed } in
  Io.save (Filename.concat dir "corpus.itdk") ds;
  (* one migration-only drift epoch: a few operators re-roll their
     templates, so only their suffix groups go dirty *)
  let migrate =
    {
      (Evolve.default ~seed:(seed + 1)) with
      p_renumber = 0.0;
      p_migrate;
      p_decay = 0.0;
      p_add = 0.0;
      p_remove = 0.0;
    }
  in
  let ds', _ = Evolve.epoch migrate (ds, truth) in
  let oc = open_out_bin (Filename.concat dir "events.json") in
  output_string oc (Hoiho.Delta.events_to_string (Hoiho.Delta.events_between ds ds'));
  close_out oc;
  (* fresh names: renumber-only epochs render new names under the same
     conventions; keep the first appearance of each name the corpus
     does not already hold *)
  let seen = Hashtbl.create (4 * n_fresh) in
  List.iter (fun h -> Hashtbl.replace seen h ()) (hostnames_of ds);
  let fresh = ref [] and n = ref 0 and state = ref (ds, truth) and epoch = ref 0 in
  while !n < n_fresh do
    incr epoch;
    if !epoch > 1000 then die "gen: could not find %d fresh hostnames" n_fresh;
    let renumber =
      {
        (Evolve.default ~seed:(seed + 1 + !epoch)) with
        p_renumber = 1.0;
        p_migrate = 0.0;
        p_decay = 0.0;
        p_add = 0.0;
        p_remove = 0.0;
      }
    in
    state := Evolve.epoch renumber !state;
    List.iter
      (fun h ->
        if !n < n_fresh && not (Hashtbl.mem seen h) then begin
          Hashtbl.replace seen h ();
          fresh := h :: !fresh;
          incr n
        end)
      (hostnames_of (fst !state))
  done;
  let rng = Prng.create (seed lxor 0x5eed) in
  let fresh = Array.of_list !fresh in
  Prng.shuffle rng fresh;
  write_lines (Filename.concat dir "fresh.txt") (Array.to_list fresh);
  let corpus_names = Array.of_list (List.sort_uniq compare (hostnames_of ds)) in
  let hot = Prng.sample rng (min n_hot (Array.length corpus_names)) corpus_names in
  write_lines (Filename.concat dir "hot.txt") (Array.to_list hot);
  Printf.printf "routers %d hostnames %d fresh %d epochs %d hot %d\n"
    (Dataset.n_routers ds) (Array.length corpus_names) (Array.length fresh)
    !epoch (Array.length hot)


(* --- oracle: the reference every served answer is compared with --- *)

let load_model path =
  match Learned_io.load path with
  | Ok m -> m
  | Error e -> die "cannot load model %s: %s" path (Learned_io.error_to_string e)

(* one line per hostname: "HOSTNAME\tDESCRIBE\tCONF", DESCRIBE being
   the city or "-" and CONF three decimals, i.e. the daemon's answer
   columns; run.py renders the CLI's line shape from the same fields *)
let oracle model_path hosts_path out_path =
  let serve = Serve.create (load_model model_path) in
  write_lines out_path
    (List.map
       (fun h ->
         let a = Serve.geolocate_uncached_conf serve h in
         Printf.sprintf "%s\t%s\t%.3f" h
           (match a.Serve.city with
           | Some c -> Hoiho_geodb.City.describe c
           | None -> "-")
           a.Serve.confidence)
       (read_lines hosts_path))

let strip_metrics (m : Learned_io.t) =
  { m with Learned_io.metrics = Hoiho_util.Json.Obj [] }

let events_of path =
  match Hoiho.Delta.events_of_string (read_file path) with
  | Ok ev -> ev
  | Error e -> die "bad events %s: %s" path e

(* the incremental-relearn contract: the relearned snapshot equals a
   batch save-model of the final corpus, metrics block excluded *)
let relearn_check corpus_path events_path model_path =
  match Hoiho.Delta.apply (Io.load corpus_path) (events_of events_path) with
  | Error e -> die "%s" (Hoiho.Delta.error_to_string e)
  | Ok (final, _) ->
      let batch =
        Learned_io.of_pipeline
          (Hoiho.Pipeline.run ~db:(Hoiho_geodb.Db.default ()) final)
      in
      print_endline
        (if Learned_io.equal (strip_metrics batch) (strip_metrics (load_model model_path))
         then "relearn-check: equal"
         else "relearn-check: MISMATCH")

(* --- request bytes, shared by the load generator and the parse timer --- *)

let get_request h =
  Printf.sprintf "GET /geolocate?h=%s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
    (Hoiho_net.Http.pct_encode h)

let post_request body =
  Printf.sprintf
    "POST /batch HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
    (String.length body) body

(* oracle lines -> (hostname, "DESCRIBE\tCONF") *)
let read_oracle path =
  Array.of_list
    (List.map
       (fun l ->
         match String.index_opt l '\t' with
         | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
         | None -> die "bad oracle line %S" l)
       (read_lines path))

(* [batch] = 0: one GET /geolocate per hostname; otherwise POST /batch
   bodies of [batch] consecutive hostnames. Returns (bytes, expected
   response body) per request. *)
let requests_of oracle batch =
  if batch = 0 then Array.map (fun (h, a) -> (get_request h, a ^ "\n")) oracle
  else
    let n = Array.length oracle / batch in
    Array.init n (fun i ->
        let body = Buffer.create (batch * 40) and want = Buffer.create (batch * 60) in
        for j = i * batch to ((i + 1) * batch) - 1 do
          let h, a = oracle.(j) in
          Buffer.add_string body h;
          Buffer.add_char body '\n';
          Buffer.add_string want (h ^ "\t" ^ a ^ "\n")
        done;
        (post_request (Buffer.contents body), Buffer.contents want))

(* --- load: one process, one thread, [conns] keep-alive connections ---

   Open loop: request i of a step is due at t0 + i / rate and is written
   when due, whatever is still outstanding (pipelining); responses come
   back in order per connection. Closed loop: each connection keeps
   [depth] requests outstanding, a request being due when the response
   that frees its slot arrives. Every request is logged as
   "STEP DUE SENT DONE OK" (monotonic ms; DONE = -1 when it never
   completed) and run.py does all the accounting. OK means status 200
   and a body equal to the oracle's. *)

let now = Hoiho_obs.Obs.now_ms

type conn = {
  mutable fd : Unix.file_descr;
  out : Buffer.t;
  mutable out_off : int;
  mutable inbuf : string;
  inflight : (int * string) Queue.t;  (** request index, expected body *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  fd

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then -1 else if matches i 0 then i else go (i + 1) in
  go from

(* split complete responses off the front of [buf]:
   (status, body) list and the unconsumed rest *)
let parse_responses buf =
  let rec go pos acc =
    let hdr_end = find_sub buf "\r\n\r\n" pos in
    if hdr_end < 0 then (List.rev acc, pos)
    else
      let head = String.lowercase_ascii (String.sub buf pos (hdr_end - pos)) in
      let status = try Scanf.sscanf head "http/1.1 %d" Fun.id with _ -> 0 in
      let clen =
        let k = find_sub head "content-length:" 0 in
        if k < 0 then 0
        else
          let e =
            Option.value (String.index_from_opt head k '\r') ~default:(String.length head)
          in
          int_of_string (String.trim (String.sub head (k + 15) (e - k - 15)))
      in
      let body_start = hdr_end + 4 in
      if body_start + clen > String.length buf then (List.rev acc, pos)
      else go (body_start + clen) ((status, String.sub buf body_start clen) :: acc)
  in
  let rs, pos = go 0 [] in
  (rs, String.sub buf pos (String.length buf - pos))

(* write as much of [c.out] as the socket takes now *)
let flush c =
  let len = Buffer.length c.out - c.out_off in
  let k = Unix.write_substring c.fd (Buffer.contents c.out) c.out_off len in
  c.out_off <- c.out_off + k;
  if c.out_off = Buffer.length c.out then begin
    Buffer.clear c.out;
    c.out_off <- 0
  end

type log = {
  step : int array;
  due : float array;
  sent : float array;
  fin : float array;
  ok : bool array;
}

let chunk = Bytes.create 65536

(* drive [conns] until no request is due any more and nothing is in
   flight, or [deadline] passes. [next_due ()] is the due time of the
   next request (infinity when none) and [send_due now] sends whatever
   is due; [on_done c t] runs after each response on [c], read at [t];
   [on_reset c] runs after
   [c] was reconnected, its in-flight requests counted as failed. *)
let event_loop port conns log ~next_due ~send_due ~on_done ~on_reset ~deadline =
  let inflight () = Array.exists (fun c -> not (Queue.is_empty c.inflight)) conns in
  let fail_conn c =
    Queue.iter (fun (i, _) -> log.ok.(i) <- false) c.inflight;
    Queue.clear c.inflight;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    c.fd <- connect port;
    Buffer.clear c.out;
    c.out_off <- 0;
    c.inbuf <- "";
    on_reset c
  in
  let rec loop () =
    let t = now () in
    send_due t;
    let nd = next_due () in
    if (nd = infinity && not (inflight ())) || t > deadline then ()
    else begin
      let wr =
        Array.to_list conns
        |> List.filter (fun c -> Buffer.length c.out > c.out_off)
        |> List.map (fun c -> c.fd)
      in
      let rd = Array.to_list (Array.map (fun c -> c.fd) conns) in
      let wait = Float.max 0.0 (Float.min (nd -. t) (deadline -. t)) /. 1000.0 in
      let r, w, _ =
        try Unix.select rd wr [] (Float.min wait 0.05)
        with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
      in
      Array.iter
        (fun c ->
          if List.mem c.fd w then begin
            match flush c with
            | () -> ()
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
            | exception Unix.Unix_error _ -> fail_conn c
          end;
          if List.mem c.fd r then
            match Unix.read c.fd chunk 0 (Bytes.length chunk) with
            | 0 -> fail_conn c
            | k ->
                let t = now () in
                let rs, rest = parse_responses (c.inbuf ^ Bytes.sub_string chunk 0 k) in
                c.inbuf <- rest;
                List.iter
                  (fun (status, body) ->
                    match Queue.take_opt c.inflight with
                    | Some (i, want) ->
                        log.fin.(i) <- t;
                        log.ok.(i) <- status = 200 && String.equal body want;
                        on_done c t
                    | None -> ())
                  rs
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
            | exception Unix.Unix_error _ -> fail_conn c)
        conns;
      loop ()
    end
  in
  loop ();
  (* whatever is still in flight at the deadline failed; reconnect so
     a later step does not read this step's late responses *)
  Array.iter (fun c -> if not (Queue.is_empty c.inflight) then fail_conn c) conns

let send c log i (bytes, want) t =
  log.sent.(i) <- t;
  Buffer.add_string c.out bytes;
  Queue.add (i, want) c.inflight;
  (* write eagerly: a due request should not wait for the next select;
     what the socket does not take now, the event loop writes later *)
  try flush c with Unix.Unix_error _ -> ()

let new_log n =
  {
    step = Array.make n 0;
    due = Array.make n 0.0;
    sent = Array.make n (-1.0);
    fin = Array.make n (-1.0);
    ok = Array.make n false;
  }

let write_log path log n =
  let oc = open_out_bin path in
  for i = 0 to n - 1 do
    Printf.fprintf oc "%d %.4f %.4f %.4f %d\n" log.step.(i) log.due.(i) log.sent.(i)
      log.fin.(i) (if log.ok.(i) then 1 else 0)
  done;
  close_out oc

let drain_ms = 2000.0

let mk_conns port n =
  Array.init n (fun _ ->
      { fd = connect port; out = Buffer.create 4096; out_off = 0; inbuf = "";
        inflight = Queue.create () })

(* ladder: "RATE:SECONDS,RATE:SECONDS,..." *)
let load_open port nconns oracle_path ladder out =
  let reqs = requests_of (read_oracle oracle_path) 0 in
  let steps =
    List.map
      (fun s -> Scanf.sscanf s "%f:%f" (fun r d -> (r, d)))
      (String.split_on_char ',' ladder)
  in
  let total = List.fold_left (fun a (r, d) -> a + int_of_float (r *. d)) 0 steps in
  let log = new_log total in
  let conns = mk_conns port nconns in
  let base = ref 0 in
  List.iteri
    (fun k (rate, dur) ->
      let n = int_of_float (rate *. dur) in
      let t0 = now () +. 5.0 in
      for j = 0 to n - 1 do
        log.step.(!base + j) <- k;
        log.due.(!base + j) <- t0 +. (float_of_int j *. 1000.0 /. rate)
      done;
      let next = ref 0 in
      let first = !base in
      let next_due () = if !next < n then log.due.(first + !next) else infinity in
      let send_due t =
        while !next < n && log.due.(first + !next) <= t do
          let i = first + !next in
          send conns.(i mod nconns) log i reqs.(i mod Array.length reqs) t;
          incr next
        done
      in
      event_loop port conns log ~next_due ~send_due ~on_done:(fun _ _ -> ()) ~on_reset:ignore
        ~deadline:(t0 +. (dur *. 1000.0) +. drain_ms);
      base := !base + n)
    steps;
  Array.iter (fun c -> Unix.close c.fd) conns;
  write_log out log total

(* closed loop: [depth] requests outstanding per connection, for
   [seconds] or until [max_reqs] requests (0: no limit; requests cycle
   through the oracle's) *)
let load_closed port nconns depth seconds max_reqs oracle_path batch out =
  let reqs = requests_of (read_oracle oracle_path) batch in
  let cap =
    if max_reqs > 0 then max_reqs else int_of_float (seconds *. 100_000.0)
  in
  let log = new_log cap in
  let conns = mk_conns port nconns in
  let next = ref 0 in
  let stop = now () +. (seconds *. 1000.0) in
  let send_on c ~due t =
    if !next < cap && t < stop then begin
      let i = !next in
      log.due.(i) <- due;
      send c log i reqs.(i mod Array.length reqs) t;
      incr next
    end
  in
  let fill c =
    let t = now () in
    for _ = 1 to depth do
      send_on c ~due:t t
    done
  in
  Array.iter fill conns;
  let next_due () = if !next < cap && now () < stop then stop else infinity in
  event_loop port conns log ~next_due ~send_due:ignore
    ~on_done:(fun c due -> send_on c ~due (now ()))
    ~on_reset:fill ~deadline:(stop +. drain_ms);
  Array.iter (fun c -> Unix.close c.fd) conns;
  write_log out log !next

(* --- replay: a workload's CLI steps through each layer's public
   functions, with spans kept in memory (name, id, parent, start, end)
   and written out at the end; run.py turns them into layer rows --- *)

type span = { name : string; id : int; parent : int; t0 : float; t1 : float }

let spans = ref []
let next_span = ref 0
let stack = ref [ -1 ]

let tracing = ref false

let span name f =
  if not !tracing then f () else
  let id = !next_span in
  incr next_span;
  let parent = List.hd !stack in
  stack := id :: !stack;
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      stack := List.tl !stack;
      spans := { name; id; parent; t0; t1 = now () } :: !spans)
    f

let major_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1048576.0

(* median over five rounds of the mean per-call time of [f i] for i in
   [0, n), in microseconds *)
let per_call_us n f =
  let round () =
    let t0 = now () in
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (f i))
    done;
    (now () -. t0) *. 1000.0 /. float_of_int n
  in
  ignore (round ());
  let xs = List.sort compare (List.init 5 (fun _ -> round ())) in
  List.nth xs 2

let take n l = List.filteri (fun i _ -> i < n) l

(* consecutive runs of [n] elements (the last may be shorter) *)
let chunks n l =
  let rec split k acc = function
    | x :: rest when k > 0 -> split (k - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | l ->
        let c, rest = split n [] l in
        go (c :: acc) rest
  in
  go [] l

let decode_model path =
  let raw = read_file path in
  span "learned_io.decode" (fun () ->
      match Learned_io.decode raw with Ok m -> m | Error _ -> die "decode %s" path)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let write_values oc values =
  String.concat ","
    (List.rev_map (fun (k, v) -> Printf.sprintf "%S:%.17g" k v) values)
  |> Printf.fprintf oc "\"values\":{%s}"

(* a workload's CLI steps, each under a step.* root span, in the order
   and with the library calls of bin/hoiho_cli.ml: save-model, relearn,
   then the bulk apply of the fresh stream (bulk) or a daemon's start-up
   (not bulk; `hoiho serve` decodes and builds its Serve.t the same way
   before it binds) *)
let replay dir work out ~bulk ~traced =
  let file f = Filename.concat dir f in
  let values = ref [] in
  let value k v = values := (k, v) :: !values in
  let counter (s : Hoiho_obs.Obs.snapshot) name =
    float_of_int (Option.value (Hoiho_obs.Obs.find_counter s name) ~default:0)
  in
  let model_path = Filename.concat work "replay_model.hoiho.json" in
  let relearned_path = Filename.concat work "replay_relearned.hoiho.json" in
  tracing := traced;
  let t0 = now () in
  let ds =
    span "step.save-model" (fun () ->
        let heap0 = major_heap_mb () in
        let ds = span "itdk.load" (fun () -> Io.load (file "corpus.itdk")) in
        value "itdk.heap_mb" (major_heap_mb () -. heap0);
        Hoiho_obs.Obs.reset ();
        let p =
          span "pipeline.run" (fun () ->
              Hoiho.Pipeline.run ~db:(Hoiho_geodb.Db.default ()) ds)
        in
        let m = p.Hoiho.Pipeline.metrics in
        List.iter
          (fun stage ->
            match Hoiho_obs.Obs.find_histogram m ("pipeline.stage." ^ stage ^ "_ms") with
            | Some h ->
                value ("pipeline." ^ stage ^ "_s") (h.Hoiho_obs.Obs.total /. 1000.0)
            | None -> value ("pipeline." ^ stage ^ "_s") 0.0)
          [ "apparent"; "regen"; "ncsel"; "learn"; "reselect" ];
        value "ncsel.candidates_evaluated" (counter m "ncsel.candidates_evaluated");
        value "learn.rx.exec_calls" (counter m "rx.exec_calls");
        value "learn.rx.prefilter_skips" (counter m "rx.prefilter_skips");
        write_file model_path
          (span "learned_io.encode" (fun () ->
               Learned_io.encode (Learned_io.of_pipeline p)));
        ds)
  in
  (* the event replay on its own, outside the steps: relearn_model does
     it again inside delta.relearn *)
  let events = events_of (file "events.json") in
  let ta = now () in
  ignore (Sys.opaque_identity (Hoiho.Delta.apply ds events));
  value "delta.apply_s" ((now () -. ta) /. 1000.0);
  span "step.relearn" (fun () ->
      let model = decode_model model_path in
      let corpus = span "itdk.load" (fun () -> Io.load (file "corpus.itdk")) in
      let events = events_of (file "events.json") in
      match
        span "delta.relearn" (fun () -> Hoiho.Delta.relearn_model ~model ~corpus events)
      with
      | Error e -> die "%s" (Hoiho.Delta.error_to_string e)
      | Ok (m', _, st) ->
          value "delta.groups_relearned" (float_of_int st.Hoiho.Delta.groups_relearned);
          value "delta.groups_reused" (float_of_int st.Hoiho.Delta.groups_reused);
          write_file relearned_path
            (span "learned_io.encode" (fun () -> Learned_io.encode m')));
  span (if bulk then "step.apply" else "step.serve") (fun () ->
      let model = decode_model relearned_path in
      let serve = span "serve.create" (fun () -> Serve.create model) in
      if bulk then begin
        (* as `hoiho apply` reads its stdin: after Serve.create, whole *)
        let fresh = span "cli.stdin_read" (fun () -> read_lines (file "fresh.txt")) in
        let buf = Buffer.create (1 lsl 20) in
        List.iter
          (fun c ->
            let answers = span "serve.apply" (fun () -> Serve.apply_batch serve c) in
            List.iter
              (fun (h, (a : Serve.answer)) ->
                Buffer.add_string buf h;
                Buffer.add_string buf (string_of_float a.Serve.confidence))
              answers;
            if Buffer.length buf > 1 lsl 20 then Buffer.clear buf)
          (chunks 256 fresh)
      end);
  value "replay_s" ((now () -. t0) /. 1000.0);
  let oc = open_out_bin out in
  let spans_json =
    List.rev_map
      (fun s ->
        Printf.sprintf "{\"name\":%S,\"id\":%d,\"parent\":%d,\"t0\":%.4f,\"t1\":%.4f}"
          s.name s.id s.parent s.t0 s.t1)
      !spans
  in
  Printf.fprintf oc "{\"spans\":[%s]," (String.concat "," spans_json);
  write_values oc !values;
  output_string oc "}\n";
  close_out oc

(* per-call costs of the serving path, on this workload's inputs and the
   relearned model *)
let costs dir model_path jobs out =
  let file f = Filename.concat dir f in
  let values = ref [] in
  let value k v = values := (k, v) :: !values in
  let fresh = read_lines (file "fresh.txt") in
  let model = load_model model_path in
  (* what a one-shot `hoiho apply HOST` pays in the library *)
  value "oneshot.load_us" (per_call_us 5 (fun _ -> load_model model_path));
  value "oneshot.create_us" (per_call_us 5 (fun _ -> Serve.create model));
  let serve = Serve.create model in
  let hot = Array.of_list (read_lines (file "hot.txt")) in
  let fresh_a = Array.of_list (take 20_000 fresh) in
  let nh = Array.length hot and nf = Array.length fresh_a in
  Array.iter (fun h -> ignore (Serve.geolocate_conf serve h)) hot;
  value "serve.hit_us"
    (per_call_us (20 * nh) (fun i -> Serve.geolocate_conf serve hot.(i mod nh)));
  value "serve.miss_us"
    (per_call_us nf (fun i -> Serve.geolocate_uncached_conf serve fresh_a.(i)));
  value "psl.split_us"
    (per_call_us nf (fun i -> Hoiho_psl.Psl.registered_suffix fresh_a.(i)));
  let gets = Array.map get_request hot in
  value "http.parse_us"
    (per_call_us (20 * nh) (fun i ->
         Hoiho_net.Http.read_request (Hoiho_net.Http.reader_of_string gets.(i mod nh))));
  let body = String.concat "" (List.map (fun h -> h ^ "\n") (take 256 fresh)) in
  let post = post_request body in
  value "http.parse_body_us"
    (per_call_us 2000 (fun _ ->
         Hoiho_net.Http.read_request (Hoiho_net.Http.reader_of_string post)));
  let answers =
    Array.map
      (fun h ->
        let a = Serve.geolocate_conf serve h in
        Printf.sprintf "%s\t%.3f\n"
          (match a.Serve.city with Some c -> Hoiho_geodb.City.describe c | None -> "-")
          a.Serve.confidence)
      hot
  in
  value "http.render_us"
    (per_call_us (20 * nh) (fun i ->
         Hoiho_net.Http.response ~headers:[ ("X-Request-Id", "hoiho-1-1") ] ~status:200
           answers.(i mod nh)));
  let monitor = Hoiho_obs.Health.create_monitor () in
  value "health.record_us"
    (per_call_us 20_000 (fun _ ->
         Hoiho_obs.Health.record_request monitor ~now_ms:(now ()) ~latency_ms:0.2
           ~status:200 ~shed:false));
  (* one request's hostnames on a cold Serve.t, at the daemon's jobs *)
  let cold = Serve.create model in
  let unseen = List.filteri (fun i _ -> i >= 20_000) fresh in
  let batches = Array.of_list (take 40 (chunks 256 unseen)) in
  let times =
    Array.map
      (fun b ->
        let t0 = now () in
        ignore (Serve.apply_batch ~jobs ~normalized:true cold b);
        now () -. t0)
      batches
  in
  Array.sort compare times;
  value "serve.apply_batch_ms" times.(Array.length times / 2);
  let oc = open_out_bin out in
  output_string oc "{";
  write_values oc !values;
  output_string oc "}\n";
  close_out oc

let () =
  (* a peer that closes mid-write is a failed request, not a dead generator *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen"; seed; dir ] -> gen (int_of_string seed) dir
  | [ "oracle"; model; hosts; out ] -> oracle model hosts out
  | [ "relearn-check"; corpus; events; model ] -> relearn_check corpus events model
  | [ "load"; "open"; port; conns; oracle; ladder; out ] ->
      load_open (int_of_string port) (int_of_string conns) oracle ladder out
  | [ "load"; "closed"; port; conns; depth; seconds; max_reqs; oracle; batch; out ] ->
      load_closed (int_of_string port) (int_of_string conns) (int_of_string depth)
        (float_of_string seconds) (int_of_string max_reqs) oracle (int_of_string batch)
        out
  | [ "replay"; dir; work; out; bulk; traced ] ->
      replay dir work out ~bulk:(bulk = "1") ~traced:(traced = "1")
  | [ "costs"; dir; model; jobs; out ] -> costs dir model (int_of_string jobs) out
  | _ -> die "usage: probe (gen|oracle|relearn-check|load|replay|costs) ARGS..."
