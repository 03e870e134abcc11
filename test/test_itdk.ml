module Router = Hoiho_itdk.Router
module Vp = Hoiho_itdk.Vp
module Dataset = Hoiho_itdk.Dataset
module Io = Hoiho_itdk.Io
module Rtts = Hoiho_itdk.Rtts
module Chaos = Hoiho_netsim.Chaos
module Prng = Hoiho_util.Prng

let tc = Helpers.tc

let test_min_rtt () =
  let r = Router.make 1 ~ping_rtts:(Rtts.of_list [ (0, 5.0); (1, 2.0); (2, 9.0) ]) in
  Alcotest.(check (option (pair int (float 1e-9)))) "min ping" (Some (1, 2.0))
    (Router.min_ping_rtt r);
  Alcotest.(check (option (pair int (float 1e-9)))) "no trace" None
    (Router.min_trace_rtt r)

let test_has_flags () =
  let r = Router.make 2 in
  Alcotest.(check bool) "no hostname" false (Router.has_hostname r);
  Alcotest.(check bool) "no rtt" false (Router.has_rtt r);
  let r2 = Router.make 3 ~hostnames:[ "a.he.net" ] ~trace_rtts:(Rtts.of_list [ (0, 1.0) ]) in
  Alcotest.(check bool) "hostname" true (Router.has_hostname r2);
  Alcotest.(check bool) "trace counts as rtt" true (Router.has_rtt r2)

let test_suffixes () =
  let r =
    Router.make 4
      ~hostnames:
        [ "a.b.he.net"; "c.he.net"; "d.zayo.com"; "not-a-hostname"; "x.zzz" ]
  in
  Alcotest.(check (list string)) "distinct suffixes" [ "he.net"; "zayo.com" ]
    (Router.suffixes r)

let make_ds () =
  let vps = Helpers.std_vps () in
  let ash = Helpers.city_st "ashburn" "us" "va" in
  let lon = Helpers.city "london" "gb" in
  let routers =
    [
      Helpers.router ~id:0 ~at:ash ~vps ~hostnames:[ "r1.ash.he.net" ] ();
      Helpers.router ~id:1 ~at:lon ~vps ~hostnames:[ "r2.lon.he.net"; "x.lon.zayo.com" ] ();
      Helpers.router ~id:2 ~at:lon ~vps ();
    ]
  in
  Helpers.dataset routers vps

let test_dataset_counts () =
  let ds = make_ds () in
  Alcotest.(check int) "routers" 3 (Dataset.n_routers ds);
  Alcotest.(check int) "named" 2 (Dataset.n_with_hostname ds);
  Alcotest.(check int) "responsive" 3 (Dataset.n_responsive ds)

let test_by_suffix () =
  let ds = make_ds () in
  let groups = Dataset.by_suffix ds in
  Alcotest.(check int) "two suffixes" 2 (List.length groups);
  let he = List.assoc "he.net" groups in
  Alcotest.(check int) "he.net routers" 2 (List.length he);
  let zayo = List.assoc "zayo.com" groups in
  Alcotest.(check int) "zayo routers" 1 (List.length zayo)

let test_vp_lookup () =
  let ds = make_ds () in
  let vp = Dataset.vp ds 3 in
  Alcotest.(check int) "vp id" 3 vp.Vp.id;
  Alcotest.check_raises "unknown vp" Not_found (fun () -> ignore (Dataset.vp ds 99))

let test_summary_mentions_label () =
  let ds = make_ds () in
  Alcotest.(check bool) "label in summary" true
    (Hoiho_util.Strutil.has_prefix ~prefix:"test:" (Dataset.summary ds))

(* --- Io round-trips --- *)

let text = Helpers.itdk_text
let parse = Helpers.itdk_parse

let test_io_roundtrip_handmade () =
  let ds = make_ds () in
  let text = text ds in
  let ds2 = parse text in
  Alcotest.(check bool) "parse is idempotent" true (parse (Helpers.itdk_text ds2) = ds2);
  Alcotest.(check string) "identical serialization" text (Helpers.itdk_text ds2)

let test_io_roundtrip_generated () =
  let ds, _ = Hoiho_netsim.Generate.generate (Hoiho_netsim.Presets.tiny ~seed:5 ()) in
  let text = text ds in
  let ds2 = parse text in
  Alcotest.(check int) "router count" (Dataset.n_routers ds) (Dataset.n_routers ds2);
  Alcotest.(check int) "vp count"
    (Array.length ds.Dataset.vps)
    (Array.length ds2.Dataset.vps);
  Alcotest.(check bool) "parse is idempotent" true (parse (Helpers.itdk_text ds2) = ds2);
  Alcotest.(check string) "full fidelity" text (Helpers.itdk_text ds2)

let test_io_preserves_truth () =
  let ds = make_ds () in
  let ds2 = parse (text ds) in
  let r0 = ds2.Dataset.routers.(0) in
  match r0.Router.truth with
  | Some t ->
      Alcotest.(check string) "city key" "ashburn|us|va" t.Router.city_key;
      Alcotest.(check int) "hostname hints" 1 (List.length t.Router.hostname_hints)
  | None -> Alcotest.fail "truth lost in round-trip"

let error =
  Alcotest.testable (fun f e -> Format.pp_print_string f (Io.error_to_string e)) ( = )

let check_error what line msg input =
  Alcotest.(check (result reject error)) what
    (Error { Io.line; msg })
    (Io.of_string input)

let test_io_rejects_garbage () =
  check_error "unknown record" 1 {|unknown record "bogus"|} "bogus record here\n"

(* each malformed input, the line it must be reported on and why *)
let malformed =
  [
    ("unknown tag", "itdk x\nrouter 1\npong 0 1.0\n", 3, {|unknown record "pong"|});
    ("empty tag", "itdk x\n \n", 2, {|unknown record ""|});
    ("router arity", "router 1 2\n", 1, "router: expected 1 field, got 2");
    ("ping arity", "router 1\nping 0\n", 2, "ping: expected 2 fields, got 1");
    ("vp arity", "vp 1 a 1.0 2.0\n", 1, "vp: expected 5 fields, got 4");
    ("truth arity", "router 1\ntruth 1.0 2.0 0 a b\n", 2, "truth: expected 4 fields, got 5");
    ("bad int", "itdk x\n\nrouter 1x\n", 3, {|bad int "1x"|});
    ("empty int", "link 1 \n", 1, {|bad int ""|});
    ("int overflow", "router 99999999999999999999\n", 1, {|bad int "99999999999999999999"|});
    ("bad float", "router 1\nping 0 1.5ms\n", 2, {|bad float "1.5ms"|});
    ("lone minus", "router 1\ntrace 0 -\n", 2, {|bad float "-"|});
    ("latitude range", "vp 0 a 91.0 0.0 k\n", 1, "Coord.make: latitude out of range");
    ("stale flag", "router 1\ntruth 1.0 2.0 2 k\n", 2, {|bad stale flag "2"|});
    ("ping outside router", "itdk x\nping 0 1.0\n", 2, "ping outside router");
    ("trace outside router", "trace 0 1.0\n", 1, "trace outside router");
    ("asn outside router", "vp 0 a 1.0 2.0 k\nasn 3\n", 2, "asn outside router");
    ("host outside router", "host a.b\n", 1, "host outside router");
    ("truth outside router", "truth 1.0 2.0 0 k\n", 1, "truth outside router");
    ("hint outside truth", "router 1\nhint ash\n", 2, "hint outside truth");
    ("hosthint outside truth", "router 1\nhost a\nhosthint a -\n", 3, "hosthint outside truth");
    ("hint outside router", "hint ash\n", 1, "hint outside truth");
  ]

let test_io_malformed_table () =
  List.iter (fun (what, input, line, msg) -> check_error what line msg input) malformed

let test_io_edge_cases () =
  let text = text (make_ds ()) in
  let ds = parse text in
  let chop = String.sub text 0 (String.length text - 1) in
  Alcotest.(check bool) "last line without newline" true (parse chop = ds);
  let blank = "\n\n" ^ String.concat "\n\n" (String.split_on_char '\n' text) in
  Alcotest.(check bool) "blank lines" true (parse blank = ds);
  let r =
    (parse "router 7\nping 3 -0.0000\nping -0x4 -1e3\nping 5 0x10\ntrace 6 12.34567890123456789\n")
      .Dataset.routers.(0)
  in
  let ping = Rtts.to_list r.Router.ping_rtts in
  Alcotest.(check (list (pair int (float 0.0)))) "numbers off the fast path"
    [ (3, -0.0); (-4, -1000.0); (5, 16.0) ]
    ping;
  Alcotest.(check bool) "negative zero kept" true (1.0 /. snd (List.hd ping) < 0.0);
  Alcotest.(check (list (pair int (float 0.0)))) "long mantissa"
    [ (6, float_of_string "12.34567890123456789") ]
    (Rtts.to_list r.Router.trace_rtts)

(* longer than the channel reader's 64 KiB buffer, twice over *)
let test_io_long_line () =
  let ds = parse (text (make_ds ())) in
  let long = String.make 150_000 'x' ^ ".he.net" in
  let r = { (ds.Dataset.routers.(2)) with Router.hostnames = [ long ] } in
  let ds = { ds with Dataset.routers = [| ds.Dataset.routers.(0); r |] } in
  let path = Filename.temp_file "hoiho_test" ".itdk" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save path ds;
      Alcotest.(check bool) "read back" true (Io.load path = ds);
      Alcotest.(check bool) "from a string" true (parse (text ds) = ds))

(* Seeded corruption of a generated corpus: truncation, byte flips and
   splices of one part into another. Whatever the bytes, the reader
   answers Ok or Error; an exception fails the test. *)
let test_io_mutations_never_raise () =
  let ds, _ = Hoiho_netsim.Generate.generate (Hoiho_netsim.Presets.tiny ~seed:3 ()) in
  let base = String.sub (text ds) 0 20_000 in
  let rng = Prng.create 17 in
  let n = String.length base in
  let mutate () =
    match Prng.int rng 3 with
    | 0 -> String.sub base 0 (Prng.int rng n)
    | 1 ->
        let b = Bytes.of_string base in
        for _ = 1 to 1 + Prng.int rng 8 do
          Bytes.set b (Prng.int rng n) (Char.chr (Prng.int rng 256))
        done;
        Bytes.to_string b
    | _ ->
        let cut = Prng.int rng n and from = Prng.int rng n in
        String.sub base 0 cut ^ String.sub base from (Prng.int rng (n - from))
  in
  let oks = ref 0 and errors = ref 0 in
  for _ = 1 to 300 do
    match Io.of_string (mutate ()) with
    | Ok _ -> incr oks
    | Error e ->
        incr errors;
        if e.Io.line < 1 then Alcotest.failf "error without a line: %s" e.Io.msg
  done;
  Alcotest.(check bool) "both outcomes seen" true (!oks > 0 && !errors > 0)

let test_io_write_refuses () =
  let ds = make_ds () in
  let with_host h =
    let r = ds.Dataset.routers.(0) in
    { ds with Dataset.routers = [| { r with Router.hostnames = [ h ] } |] }
  in
  let refused what ds =
    match Io.to_string ds with
    | Ok _ -> Alcotest.failf "%s: written" what
    | Error e -> e
  in
  let e = refused "space" (with_host "a b.he.net") in
  (* the line the host record has in the text of a writable twin *)
  let twin = String.split_on_char '\n' (text (with_host "a_b.he.net")) in
  let rec index i = function
    | [] -> Alcotest.fail "twin host line missing"
    | l :: rest -> if l = "host a_b.he.net" then i else index (i + 1) rest
  in
  Alcotest.(check int) "line of the hostname" (index 1 twin) e.Io.line;
  ignore (refused "newline" (with_host "a\nrouter 9"));
  ignore (refused "label newline" { ds with Dataset.label = "two\nlines" });
  let r = ds.Dataset.routers.(0) in
  let t = { (Option.get r.Router.truth) with Router.hostname_hints = [ ("a", Some "-") ] } in
  ignore
    (refused "hint code dash"
       { ds with Dataset.routers = [| { r with Router.truth = Some t } |] });
  let path = Filename.temp_file "hoiho_test" ".itdk" in
  Sys.remove path;
  Alcotest.(check bool) "save raises before creating the file" true
    (match Io.save path (with_host "a b") with
    | () -> false
    | exception Failure _ -> not (Sys.file_exists path));
  (* control and high-bit bytes other than '\n' round-trip *)
  let odd = "a\x01\x7f\xff\r.he.net" in
  Alcotest.(check (list string)) "odd bytes round-trip" [ odd ]
    (parse (text (with_host odd))).Dataset.routers.(0).Router.hostnames

(* whatever fault injection does to hostnames, what the writer accepts
   reads back to the same dataset *)
let test_io_chaos_writes_read_back () =
  let ds, truth = Hoiho_netsim.Generate.generate (Hoiho_netsim.Presets.tiny ~seed:2 ()) in
  let refused = ref 0 in
  List.iter
    (fun seed ->
      let _, mangled =
        Chaos.apply
          (Chaos.config ~level:4 ~classes:[ Chaos.Hostname_mangle ] seed)
          (Hoiho_netsim.Truth.db truth) ds
      in
      match Io.to_string mangled with
      | Error _ -> incr refused
      | Ok s -> Alcotest.(check string) "reads back" s (text (parse s)))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "mangled whitespace refused" true (!refused > 0)

let test_io_file_roundtrip () =
  let ds = make_ds () in
  let path = Filename.temp_file "hoiho_test" ".itdk" in
  Io.save path ds;
  let ds2 = Io.load path in
  Sys.remove path;
  Alcotest.(check string) "file round-trip" (text ds) (text ds2)

(* --- Rtts --- *)

let gen_samples =
  QCheck.(small_list (pair small_nat (oneof [ float; pos_float; float_range 0.0 3.0 ])))

(* the (vp, rtt) fold Router.min_ping_rtt used over lists *)
let list_min = function
  | [] -> None
  | (v, r) :: rest ->
      Some
        (List.fold_left
           (fun (bv, br) (v', r') -> if r' < br then (v', r') else (bv, br))
           (v, r) rest)

let q name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:500 ~name gen prop)

(* equal as bits, so nan and -0.0 count too *)
let same_sample (v, r) (v', r') =
  v = v' && Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float r')

let rtts_props =
  [
    q "of_list/to_list roundtrip" gen_samples (fun l ->
        let back = Rtts.to_list (Rtts.of_list l) in
        List.length back = List.length l && List.for_all2 same_sample l back);
    q "min agrees with the list fold" gen_samples (fun l ->
        match (Rtts.min (Rtts.of_list l), list_min l) with
        | None, None -> true
        | Some a, Some b -> same_sample a b
        | _ -> false);
    q "filter and map keep order" gen_samples (fun l ->
        let t = Rtts.of_list l in
        let even (v, _) = v mod 2 = 0 and succ (v, r) = (v + 1, r) in
        List.equal same_sample
          (Rtts.to_list (Rtts.filter (fun v r -> even (v, r)) t))
          (List.filter even l)
        && List.equal same_sample (Rtts.to_list (Rtts.map (fun v r -> succ (v, r)) t)) (List.map succ l));
  ]

(* the reader's float fast path gives float_of_string's double, bit for
   bit, on the writer's %.4f/%.6f output and on arbitrary digit strings *)
let prop_fast_floats =
  let gen =
    QCheck.(
      pair (oneof [ float; float_range (-1000.0) 1000.0; float_range 0.0 0.01 ]) (int_range 0 15))
  in
  q "float fast path equals float_of_string" gen (fun (x, k) ->
      List.for_all
        (fun s ->
          match Io.of_string (Printf.sprintf "router 1\nping 0 %s\n" s) with
          | Ok ds ->
              Rtts.to_list ds.Dataset.routers.(0).Router.ping_rtts
              |> List.equal same_sample [ (0, float_of_string s) ]
          | Error _ -> false)
        [ Printf.sprintf "%.4f" x; Printf.sprintf "%.6f" x; Printf.sprintf "%.*f" k x ])

let suites =
  [
    ( "itdk",
      [
        tc "min rtt" test_min_rtt;
        tc "has flags" test_has_flags;
        tc "suffixes" test_suffixes;
        tc "dataset counts" test_dataset_counts;
        tc "by_suffix" test_by_suffix;
        tc "vp lookup" test_vp_lookup;
        tc "summary" test_summary_mentions_label;
      ] );
    ( "itdk.io",
      [
        tc "roundtrip handmade" test_io_roundtrip_handmade;
        tc "roundtrip generated" test_io_roundtrip_generated;
        tc "preserves truth" test_io_preserves_truth;
        tc "rejects garbage" test_io_rejects_garbage;
        tc "file roundtrip" test_io_file_roundtrip;
        tc "malformed inputs name their line" test_io_malformed_table;
        tc "edge cases parse" test_io_edge_cases;
        tc "line longer than the buffer" test_io_long_line;
        tc "mutations never raise" test_io_mutations_never_raise;
        tc "write refuses unreadable datasets" test_io_write_refuses;
        tc "chaos-mangled writes read back" test_io_chaos_writes_read_back;
        prop_fast_floats;
      ] );
    ("itdk.rtts", rtts_props);
  ]
