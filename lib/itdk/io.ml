(* Format (one record per line, fields separated by single spaces):
     itdk <label...>
     vp <id> <name> <lat> <lon> <city_key>
     link <id> <id>
     router <id>
     asn <asn>
     host <hostname>
     ping <vp_id> <rtt_ms>
     trace <vp_id> <rtt_ms>
     truth <lat> <lon> <stale:0|1> <city_key>
     hint <intended_hint>
     hosthint <hostname> <code|->
   A hostname never contains spaces; city keys contain '|' but no
   spaces; labels may contain spaces and run to end of line. The writer
   refuses a dataset that would break these rules, so everything it
   writes reads back. *)

module Coord = Hoiho_geo.Coord

type error = { line : int; msg : string }

let error_to_string e = Printf.sprintf "line %d: %s" e.line e.msg

let error_at path e =
  if e.line = 0 then Printf.sprintf "%s: %s" path e.msg
  else Printf.sprintf "%s:%d: %s" path e.line e.msg

(* --- writer --- *)

exception Unencodable of error

(* One walk in output order, one line per [pr]. With [~dry] it writes
   nothing and only vets the string fields, naming the line each would
   have gone on; a real write follows a dry one, so it never fails.
   Fields are vetted as [pr]'s arguments, before it counts their line. *)
let emit ~dry put (ds : Dataset.t) =
  let line = ref 0 in
  let pr fmt =
    incr line;
    if dry then Printf.ikfprintf ignore () fmt else Printf.ksprintf put fmt
  in
  let need what ok s =
    if dry && not ok then
      raise
        (Unencodable { line = !line + 1; msg = Printf.sprintf "%s %S cannot be written" what s })
  in
  (* a field between single spaces: no space, no newline *)
  let tok what s =
    if dry then need what (not (String.exists (fun c -> c = ' ' || c = '\n') s)) s;
    s
  in
  need "label" (not (String.contains ds.Dataset.label '\n')) ds.Dataset.label;
  pr "itdk %s\n" ds.Dataset.label;
  Array.iter
    (fun (vp : Vp.t) ->
      pr "vp %d %s %.6f %.6f %s\n" vp.Vp.id (tok "vp name" vp.Vp.name)
        vp.Vp.coord.Coord.lat vp.Vp.coord.Coord.lon (tok "vp city key" vp.Vp.city_key))
    ds.Dataset.vps;
  Array.iter (fun (a, b) -> pr "link %d %d\n" a b) ds.Dataset.links;
  Array.iter
    (fun (r : Router.t) ->
      pr "router %d\n" r.Router.id;
      (match r.Router.asn with
      | Some asn -> pr "asn %d\n" asn
      | None -> ());
      List.iter (fun h -> pr "host %s\n" (tok "hostname" h)) r.Router.hostnames;
      Rtts.iter (fun vp rtt -> pr "ping %d %.4f\n" vp rtt) r.Router.ping_rtts;
      Rtts.iter (fun vp rtt -> pr "trace %d %.4f\n" vp rtt) r.Router.trace_rtts;
      match r.Router.truth with
      | None -> ()
      | Some t ->
          pr "truth %.6f %.6f %d %s\n" t.Router.coord.Coord.lat
            t.Router.coord.Coord.lon
            (if t.Router.stale then 1 else 0)
            (tok "truth city key" t.Router.city_key);
          (match t.Router.intended_hint with
          | Some hint -> pr "hint %s\n" (tok "hint" hint)
          | None -> ());
          List.iter
            (fun (h, code) ->
              (* "-" is how "no code" is written *)
              let code =
                match code with
                | None -> "-"
                | Some c ->
                    need "hint code" (c <> "-") c;
                    tok "hint code" c
              in
              pr "hosthint %s %s\n" (tok "hint hostname" h) code)
            t.Router.hostname_hints)
    ds.Dataset.routers

let check ds = emit ~dry:true ignore ds

let checked ds f =
  match check ds with () -> Ok (f ()) | exception Unencodable e -> Error e

let write oc ds = checked ds (fun () -> emit ~dry:false (output_string oc) ds)

let to_string ds =
  checked ds (fun () ->
      let buf = Buffer.create 65536 in
      emit ~dry:false (Buffer.add_string buf) ds;
      Buffer.contents buf)

(* --- reader ---

   One pass over a byte buffer. A channel is read through a fixed
   buffer that is refilled in place and grows only to hold a line
   longer than itself; a string is parsed where it lies. Fields are
   located by index, and ints and floats are parsed from the buffer
   without copying them out. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

type src = {
  mutable buf : Bytes.t;
  mutable line : int;  (* start of the line last returned *)
  mutable pos : int;  (* first unread byte *)
  mutable lim : int;  (* end of the bytes read so far *)
  mutable eof : bool;
  refill : Bytes.t -> int -> int -> int;  (* [input]; 0 at end of file *)
}

(* The end of the next line, which starts at [src.line], with [pos]
   moved past its '\n'; -1 at end of input. A last line without '\n'
   still counts. [i] is where the search for '\n' resumes. *)
let rec next_line src i =
  if i < src.lim then
    if Bytes.unsafe_get src.buf i = '\n' then begin
      src.line <- src.pos;
      src.pos <- i + 1;
      i
    end
    else next_line src (i + 1)
  else if src.eof then
    if src.pos < src.lim then begin
      src.line <- src.pos;
      src.pos <- src.lim;
      src.lim
    end
    else -1
  else begin
    (* move the partial line to the front, grow only when it fills the
       whole buffer, then read more after it *)
    let keep = src.lim - src.pos in
    if keep = Bytes.length src.buf then begin
      let b = Bytes.create (2 * keep) in
      Bytes.blit src.buf src.pos b 0 keep;
      src.buf <- b
    end
    else Bytes.blit src.buf src.pos src.buf 0 keep;
    src.pos <- 0;
    let n = src.refill src.buf keep (Bytes.length src.buf - keep) in
    if n = 0 then src.eof <- true;
    src.lim <- keep + n;
    next_line src keep
  end

let max_fields = 6

(* 10^0 .. 10^22, every one exact in a double *)
let pow10 = Array.init 23 (fun i -> float_of_string ("1e" ^ string_of_int i))

type state = {
  fs : int array;  (* field starts *)
  fe : int array;  (* field ends *)
  mutable nf : int;  (* fields on the line, counting any past max_fields *)
  mutable label : string;
  mutable vps : Vp.t list;
  mutable links : (int * int) list;
  mutable routers : Router.t list;
  mutable id : int option;  (* the router under construction *)
  mutable hostnames : string list;
  mutable asn : int option;
  ping : Rtts.Builder.t;
  trace : Rtts.Builder.t;
  mutable truth : (string * Coord.t * bool) option;
  mutable hint : string option;
  mutable hints : (string * string option) list;
}

let flush st =
  match st.id with
  | None -> ()
  | Some id ->
      let truth =
        Option.map
          (fun (city_key, coord, stale) ->
            {
              Router.city_key;
              coord;
              intended_hint = st.hint;
              stale;
              hostname_hints = List.rev st.hints;
            })
          st.truth
      in
      st.routers <-
        Router.make id ~hostnames:(List.rev st.hostnames) ?asn:st.asn
          ~ping_rtts:(Rtts.Builder.freeze st.ping)
          ~trace_rtts:(Rtts.Builder.freeze st.trace) ?truth
        :: st.routers;
      st.id <- None;
      st.hostnames <- [];
      st.asn <- None;
      st.truth <- None;
      st.hint <- None;
      st.hints <- []

(* Field [i] of the current line is [b.[st.fs.(i)] .. b.[st.fe.(i) - 1]].
   The helpers below take everything as arguments, so a line costs no
   closure and no allocation beyond the strings the dataset keeps. *)

let split st b s e =
  let fs = st.fs and fe = st.fe in
  let nf = ref 0 in
  fs.(0) <- s;
  for i = s to e do
    if i = e || Bytes.unsafe_get b i = ' ' then begin
      if !nf < max_fields then fe.(!nf) <- i;
      incr nf;
      if !nf < max_fields then fs.(!nf) <- i + 1
    end
  done;
  st.nf <- !nf

let str st b i = Bytes.sub_string b st.fs.(i) (st.fe.(i) - st.fs.(i))

let slow_int st b i =
  match int_of_string_opt (str st b i) with Some n -> n | None -> bad "bad int %S" (str st b i)

let rec digits st b i neg j e n =
  if j = e then if neg then -n else n
  else
    match Bytes.unsafe_get b j with
    | '0' .. '9' as c -> digits st b i neg (j + 1) e ((10 * n) + Char.code c - 48)
    | _ -> slow_int st b i

(* up to 18 digits cannot overflow; anything else is int_of_string's *)
let int st b i =
  let s = st.fs.(i) and e = st.fe.(i) in
  let neg = s < e && Bytes.unsafe_get b s = '-' in
  let p = if neg then s + 1 else s in
  if p < e && e - p <= 18 then digits st b i neg p e 0 else slow_int st b i

let slow_float st b i =
  match float_of_string_opt (str st b i) with
  | Some x -> x
  | None -> bad "bad float %S" (str st b i)

(* [m] holds the [n] digits read so far; [point] is the offset of the
   '.', or -1. At most 15 digits, at most 22 of them after the point:
   the mantissa and the power of ten are exact, so their quotient is
   the correctly rounded value, as float_of_string gives. *)
let rec mantissa st b i neg j e m n point =
  if j = e then
    let frac = if point < 0 then 0 else e - point - 1 in
    if n - frac >= 1 && frac <= 22 then
      let x = float_of_int m /. pow10.(frac) in
      if neg then -.x else x
    else slow_float st b i
  else
    match Bytes.unsafe_get b j with
    | '0' .. '9' as c when n < 15 ->
        mantissa st b i neg (j + 1) e ((10 * m) + Char.code c - 48) (n + 1) point
    | '.' when point < 0 -> mantissa st b i neg (j + 1) e m n j
    | _ -> slow_float st b i

let float st b i =
  let s = st.fs.(i) in
  let neg = s < st.fe.(i) && Bytes.unsafe_get b s = '-' in
  mantissa st b i neg (if neg then s + 1 else s) st.fe.(i) 0 0 (-1)

let rec same b s lit k =
  k = String.length lit
  || (Bytes.unsafe_get b (s + k) = String.unsafe_get lit k && same b s lit (k + 1))
let is st b lit = st.fe.(0) - st.fs.(0) = String.length lit && same b st.fs.(0) lit 0

let arity st tag n =
  if st.nf <> n + 1 then
    bad "%s: expected %d field%s, got %d" tag n (if n = 1 then "" else "s") (st.nf - 1)

let in_router st tag = match st.id with Some _ -> () | None -> bad "%s outside router" tag
let in_truth st tag = match st.truth with Some _ -> () | None -> bad "%s outside truth" tag

let coord lat lon =
  match Coord.make ~lat ~lon with c -> c | exception Invalid_argument m -> bad "%s" m

let sample st b tag rtts =
  arity st tag 2;
  in_router st tag;
  let vp = int st b 1 in
  Rtts.Builder.add rtts vp (float st b 2)

let parse_line st b s e =
  split st b s e;
  if is st b "ping" then sample st b "ping" st.ping
  else if is st b "trace" then sample st b "trace" st.trace
  else if is st b "host" then begin
    arity st "host" 1;
    in_router st "host";
    st.hostnames <- str st b 1 :: st.hostnames
  end
  else if is st b "router" then begin
    arity st "router" 1;
    let id = int st b 1 in
    flush st;
    st.id <- Some id
  end
  else if is st b "asn" then begin
    arity st "asn" 1;
    in_router st "asn";
    st.asn <- Some (int st b 1)
  end
  else if is st b "truth" then begin
    arity st "truth" 4;
    in_router st "truth";
    let lat = float st b 1 in
    let c = coord lat (float st b 2) in
    let stale =
      match str st b 3 with "1" -> true | "0" -> false | f -> bad "bad stale flag %S" f
    in
    st.truth <- Some (str st b 4, c, stale);
    st.hint <- None;
    st.hints <- []
  end
  else if is st b "hosthint" then begin
    arity st "hosthint" 2;
    in_truth st "hosthint";
    let code = str st b 2 in
    st.hints <- (str st b 1, if code = "-" then None else Some code) :: st.hints
  end
  else if is st b "hint" then begin
    arity st "hint" 1;
    in_truth st "hint";
    st.hint <- Some (str st b 1)
  end
  else if is st b "link" then begin
    arity st "link" 2;
    let a = int st b 1 in
    st.links <- (a, int st b 2) :: st.links
  end
  else if is st b "vp" then begin
    arity st "vp" 5;
    let id = int st b 1 in
    let lat = float st b 3 in
    let coord = coord lat (float st b 4) in
    st.vps <- Vp.make ~id ~name:(str st b 2) ~city_key:(str st b 5) ~coord :: st.vps
  end
  else if is st b "itdk" then
    st.label <- (if st.nf = 1 then "" else Bytes.sub_string b st.fs.(1) (e - st.fs.(1)))
  else bad "unknown record %S" (str st b 0)

let parse src =
  let st =
    {
      fs = Array.make max_fields 0;
      fe = Array.make max_fields 0;
      nf = 0;
      label = "dataset";
      vps = [];
      links = [];
      routers = [];
      id = None;
      hostnames = [];
      asn = None;
      ping = Rtts.Builder.create ();
      trace = Rtts.Builder.create ();
      truth = None;
      hint = None;
      hints = [];
    }
  in
  (* a failure is reported under the number of the line it is on *)
  let rec run line =
    match next_line src src.pos with
    | -1 -> Ok ()
    | e -> (
        match if e > src.line then parse_line st src.buf src.line e with
        | () -> run (line + 1)
        | exception Bad msg -> Error { line; msg })
  in
  match run 1 with
  | Error _ as e -> e
  | Ok () ->
      flush st;
      Ok
        (Dataset.make ~label:st.label
           ~links:(Array.of_list (List.rev st.links))
           ~routers:(Array.of_list (List.rev st.routers))
           ~vps:(Array.of_list (List.rev st.vps))
           ())

let chunk = 65536

let read ic =
  parse { buf = Bytes.create chunk; line = 0; pos = 0; lim = 0; eof = false; refill = input ic }

let of_string s =
  parse
    {
      buf = Bytes.unsafe_of_string s;
      line = 0;
      pos = 0;
      lim = String.length s;
      eof = true;
      refill = (fun _ _ _ -> 0);
    }

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error { line = 0; msg }
  | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read ic)

let load path =
  match read_file path with Ok ds -> ds | Error e -> failwith (error_at path e)

let save path ds =
  match check ds with
  | exception Unencodable e -> failwith (error_at path e)
  | () ->
      let oc = open_out_bin path in
      emit ~dry:false (output_string oc) ds;
      close_out oc
