module Learned_io = Hoiho.Learned_io
module Pipeline = Hoiho.Pipeline
module Ncsel = Hoiho.Ncsel
module Plan = Hoiho.Plan
module Evalx = Hoiho.Evalx
module Confidence = Hoiho.Confidence
module Engine = Hoiho_rx.Engine
module Pool = Hoiho_util.Pool
module Obs = Hoiho_obs.Obs
module Trace = Hoiho_obs.Trace

let c_hits = Obs.counter "serve.cache_hits"
let c_misses = Obs.counter "serve.cache_misses"
let c_applied = Obs.counter "serve.applied"
let c_invalidated = Obs.counter "serve.cache_invalidated"
let h_batch = Obs.histogram "serve.batch_ms"

type answer = { city : Hoiho_geodb.City.t option; confidence : float }

type t = {
  model : Learned_io.t;
  db : Hoiho_geodb.Db.t;
  by_suffix : (string, Learned_io.suffix_model) Hashtbl.t;
  cache : answer Lru.t;
}

(* negative answers carry an explicit confidence of 0.0 — cached
   entries, batch rows, and cold-path answers all share one shape *)
let no_answer = { city = None; confidence = Confidence.none }

let index_model model =
  let by_suffix = Hashtbl.create 64 in
  List.iter
    (fun (sm : Learned_io.suffix_model) ->
      (* duplicate suffixes are a corrupt model: silently keeping the
         first (the old behavior) served answers from an arbitrary half
         of the snapshot. Learned_io.decode now rejects them with a
         typed Schema error; a hand-assembled model gets the same
         refusal here. *)
      if Hashtbl.mem by_suffix sm.Learned_io.suffix then
        invalid_arg
          (Printf.sprintf "Serve.create: duplicate suffix model %S"
             sm.Learned_io.suffix);
      Hashtbl.add by_suffix sm.Learned_io.suffix sm)
    model.Learned_io.suffixes;
  by_suffix

let create ?(cache_capacity = 65536) ?(cache_shards = 8) model =
  {
    model;
    db = Learned_io.db model;
    by_suffix = index_model model;
    cache = Lru.create ~shards:cache_shards ~capacity:cache_capacity ();
  }

(* Incremental swap: reuse the warm cache, evicting only the entries an
   incremental relearn could have changed. Cached answers — negative
   ones included — are keyed by normalized hostname and determined by
   that hostname's registered suffix's model, so an entry is stale
   exactly when its suffix is dirty. Keys with no registered suffix
   always answer [None] under every model and survive too. The
   bugfix this encodes: a full-cache carry-over used to keep serving
   cached negatives for hostnames that the new model *can* now answer
   (unknown in epoch 1, named in epoch 2). *)
let rebuild ?(dirty = []) t model =
  if dirty <> [] then begin
    let dirty_tbl = Hashtbl.create (List.length dirty) in
    List.iter (fun s -> Hashtbl.replace dirty_tbl s ()) dirty;
    let stale key =
      match Hoiho_psl.Psl.registered_suffix key with
      | Some s -> Hashtbl.mem dirty_tbl s
      | None -> false
    in
    Obs.add c_invalidated (Lru.remove_matching t.cache stale)
  end;
  { model; db = Learned_io.db model; by_suffix = index_model model; cache = t.cache }

let model t = t.model

let usable = function
  | Ncsel.Good | Ncsel.Promising -> true
  | Ncsel.Poor -> false

(* the apply path, on an already-normalized hostname: a step-for-step
   mirror of Pipeline.geolocate, so a served answer is byte-identical to
   the in-process one on the run the model was saved from. The spans it
   emits are the serving half of the decision trace: "serve.apply" wraps
   the call; "serve.psl", one "serve.cand" per regex tried, and
   "serve.resolve" record the split, captures, and dictionary
   consultation that [hoiho explain] pretty-prints. *)
let apply_norm ?parent t hostname =
  try
    Trace.with_span ?parent "serve.apply" ~attrs:[ ("hostname", hostname) ]
    @@ fun () ->
    let answer =
      match
        Trace.with_span "serve.psl" (fun () ->
            let s = Hoiho_psl.Psl.registered_suffix hostname in
            Trace.add_attr "suffix" (Option.value s ~default:"-");
            s)
      with
      | None -> no_answer
      | Some suffix -> (
          match Hashtbl.find_opt t.by_suffix suffix with
          | Some sm when usable sm.Learned_io.classification ->
              (* spans for successive candidates must be siblings, so
                 the recursion steps OUTSIDE the current span before
                 trying the next regex *)
              let try_cand (c : Learned_io.cand) =
                Trace.with_span "serve.cand"
                  ~attrs:[ ("regex", c.Learned_io.source) ]
                @@ fun () ->
                match Engine.exec c.Learned_io.regex hostname with
                | None ->
                    Trace.add_attr "matched" "false";
                    `Next
                | Some groups -> (
                    Trace.add_attr "matched" "true";
                    Trace.add_attr "groups" (Pipeline.trace_groups groups);
                    match Plan.decode c.Learned_io.plan groups with
                    | None ->
                        Trace.add_attr "decoded" "false";
                        `Next
                    | Some ex ->
                        Trace.add_attr "hint" ex.Plan.hint;
                        Trace.add_attr "hint_type"
                          (Plan.hint_type_name ex.Plan.hint_type);
                        Trace.with_span "serve.resolve"
                        @@ fun () ->
                        let cities, provenance =
                          Evalx.resolve_explained t.db
                            ~learned:sm.Learned_io.learned ex
                        in
                        (* the same Confidence.of_resolution call, on
                           the same inputs, as Pipeline.geolocate_conf:
                           served scores are byte-identical to
                           in-process ones *)
                        let confidence =
                          Confidence.of_resolution
                            ~stats:sm.Learned_io.stats
                            ~learned:sm.Learned_io.learned ex
                            (cities, provenance)
                        in
                        Pipeline.trace_resolve_result cities provenance
                          confidence;
                        `Done
                          (match cities with
                          | best :: _ -> { city = Some best; confidence }
                          | [] -> no_answer))
              in
              let rec first = function
                | [] -> no_answer
                | c :: rest -> (
                    match try_cand c with
                    | `Done answer -> answer
                    | `Next -> first rest)
              in
              first sm.Learned_io.cands
          | _ -> no_answer)
    in
    Trace.add_attr "answer"
      (match answer.city with
      | Some c -> Hoiho_geodb.City.describe c
      | None -> "none");
    answer
  with _ -> no_answer

let geolocate_uncached_conf t hostname =
  Obs.incr c_applied;
  apply_norm t (Hoiho_util.Strutil.normalize_hostname hostname)

let geolocate_uncached t hostname = (geolocate_uncached_conf t hostname).city

let geolocate_conf t hostname =
  Obs.incr c_applied;
  let key = Hoiho_util.Strutil.normalize_hostname hostname in
  Trace.with_span "serve.geolocate" ~attrs:[ ("hostname", key) ]
  @@ fun () ->
  let probe () =
    Trace.with_span "serve.cache" @@ fun () ->
    let r = Lru.find t.cache key in
    Trace.add_attr "outcome" (match r with Some _ -> "hit" | None -> "miss");
    r
  in
  match probe () with
  | Some answer ->
      Obs.incr c_hits;
      answer
  | None ->
      Obs.incr c_misses;
      let answer = apply_norm t key in
      Lru.add t.cache key answer;
      answer

let geolocate t hostname = (geolocate_conf t hostname).city

let apply_batch ?jobs ?(normalized = false) t hostnames =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  (* [normalized] callers (the network daemon) have already run
     Strutil.normalize_hostname at their input boundary — exactly once
     per hostname, per the serving contract *)
  let keys =
    if normalized then hostnames
    else List.map Hoiho_util.Strutil.normalize_hostname hostnames
  in
  Trace.with_span "serve.batch"
    ~attrs:[ ("hostnames", string_of_int (List.length keys)) ]
  @@ fun () ->
  Obs.time h_batch
  @@ fun () ->
  (* per-miss serve.apply spans run on pool domains; the explicit parent
     keeps them under this batch at every jobs setting *)
  let parent = Trace.fanout_parent () in
  Obs.add c_applied (List.length keys);
  (* one sequential cache probe per distinct key, in first-appearance
     order: hit/miss counts and eviction order are then functions of the
     batch contents alone, not of scheduling *)
  let answers : (string, answer) Hashtbl.t =
    Hashtbl.create (List.length keys)
  in
  let misses = ref [] in
  List.iter
    (fun key ->
      if not (Hashtbl.mem answers key) then
        match Lru.find t.cache key with
        | Some answer ->
            Obs.incr c_hits;
            Hashtbl.replace answers key answer
        | None ->
            Obs.incr c_misses;
            Hashtbl.replace answers key no_answer;
            misses := key :: !misses)
    keys;
  let misses = Array.of_list (List.rev !misses) in
  let n_misses = Array.length misses in
  (* the per-miss computation is pure (~1µs each after the exec-path
     allocation work); fanning each miss out as its own pool job costs
     more in queue traffic than the work saves, which is how the cold
     path used to run SLOWER in parallel. Batch the misses into chunks
     of at least [min_chunk] and stay sequential below one chunk's
     worth — the pool then only ever sees jobs big enough to pay for
     themselves. *)
  let min_chunk = 64 in
  let computed = Array.make n_misses None in
  let compute i =
    let key = misses.(i) in
    computed.(i) <- Some (apply_norm ~parent t key)
  in
  if jobs <= 1 || n_misses <= min_chunk then
    for i = 0 to n_misses - 1 do compute i done
  else begin
    let chunk = max min_chunk (n_misses / (jobs * 4)) in
    Pool.parallel_for (Pool.get jobs) ~chunk n_misses compute
  end;
  Trace.add_attr "misses" (string_of_int n_misses);
  (* inserts stay sequential and in first-appearance order, so cache
     contents and eviction order are jobs-invariant *)
  Array.iteri
    (fun i answer_opt ->
      let key = misses.(i) in
      let answer = Option.get answer_opt in
      Hashtbl.replace answers key answer;
      Lru.add t.cache key answer)
    computed;
  List.map2 (fun hostname key -> (hostname, Hashtbl.find answers key)) hostnames keys

let cache_length t = Lru.length t.cache
let cached t key = Lru.mem t.cache key
