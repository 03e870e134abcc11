module Drop = Hoiho_baselines.Drop
module Hloc = Hoiho_baselines.Hloc
module Undns = Hoiho_baselines.Undns
module Router = Hoiho_itdk.Router

let tc = Helpers.tc
let db = Helpers.db

let fixture_ds () =
  let sites =
    [
      (Helpers.city "london" "gb", "lhr", 3);
      (Helpers.city "frankfurt" "de", "fra", 3);
      (Helpers.city_st "seattle" "us" "wa", "sea", 3);
    ]
  in
  let ds, routers, vps = Helpers.suffix_fixture sites in
  ignore vps;
  (ds, routers)

(* --- DRoP --- *)

let test_drop_learns_rule () =
  let ds, _ = fixture_ds () in
  let rules = Drop.learn db ds in
  match Drop.find_rule rules "example.net" with
  | Some rule ->
      Alcotest.(check int) "three labels" 3 rule.Drop.n_labels;
      Alcotest.(check int) "geo adjacent to suffix" 0 rule.Drop.pos_from_end;
      Alcotest.(check bool) "digit shape" true rule.Drop.digits_after
  | None -> Alcotest.fail "no rule learned"

let test_drop_infer () =
  let ds, _ = fixture_ds () in
  let rules = Drop.learn db ds in
  (match Drop.infer rules db "po1.cr9.lhr4.example.net" with
  | Some city -> Alcotest.(check string) "london" "london" city.Hoiho_geodb.City.name
  | None -> Alcotest.fail "should infer");
  (* shape rigidity: a 4-label hostname does not match the 3-label rule *)
  Alcotest.(check bool) "wrong shape" true
    (Drop.infer rules db "x.po1.cr9.lhr4.example.net" = None);
  (* digit rigidity: the rule was built from digit-suffixed geo labels *)
  Alcotest.(check bool) "missing digits" true
    (Drop.infer rules db "po1.cr9.lhr.example.net" = None)

let test_drop_dictionary_verbatim () =
  (* DRoP interprets "ash" as Nashua — no custom-hint learning *)
  let sites =
    [
      (Helpers.city "london" "gb", "lhr", 3);
      (Helpers.city "frankfurt" "de", "fra", 3);
      (Helpers.city_st "ashburn" "us" "va", "ash", 3);
    ]
  in
  let ds, _, _ = Helpers.suffix_fixture sites in
  let rules = Drop.learn db ds in
  match Drop.infer rules db "ae1.cr1.ash2.example.net" with
  | Some city -> Alcotest.(check string) "misread as nashua" "nashua" city.Hoiho_geodb.City.name
  | None -> Alcotest.fail "drop should still interpret via the dictionary"

let test_drop_staleness () =
  let ds, _ = fixture_ds () in
  let fresh = Drop.learn db ds in
  let stale = Drop.learn ~staleness:1.0 db ds in
  Alcotest.(check bool) "fresh has rules" true (Drop.rules fresh <> []);
  Alcotest.(check (list string)) "fully stale has none" []
    (List.map (fun (r : Drop.rule) -> r.Drop.suffix) (Drop.rules stale))

let test_drop_unknown_suffix () =
  let ds, _ = fixture_ds () in
  let rules = Drop.learn db ds in
  Alcotest.(check bool) "no rule, no inference" true
    (Drop.infer rules db "ae1.cr1.lhr1.other.org" = None)

(* --- HLOC --- *)

let test_hloc_basic () =
  let ds, routers = fixture_ds () in
  let r = List.hd routers in
  let h = List.hd r.Router.hostnames in
  match Hloc.infer db ds r h with
  | Some city -> Alcotest.(check string) "london" "london" city.Hoiho_geodb.City.name
  | None -> Alcotest.fail "hloc should infer for a pingable router"

let test_hloc_needs_ping () =
  let ds, _ = fixture_ds () in
  let vps = Helpers.std_vps () in
  let silent =
    Hoiho_itdk.Router.make 99 ~hostnames:[ "ae1.cr1.lhr1.example.net" ]
      ~trace_rtts:(Hoiho_itdk.Rtts.of_list [ (0, 80.0) ])
  in
  ignore vps;
  Alcotest.(check bool) "no ping, no inference" true
    (Hloc.infer db ds silent "ae1.cr1.lhr1.example.net" = None)

let test_hloc_blocklist () =
  let ds, routers = fixture_ds () in
  let r = List.hd routers in
  (* "gig" is in HLOC's blocklist, so the only token is ignored *)
  Alcotest.(check bool) "blocklisted token ignored" true
    (Hloc.infer db ds r "gig.cr0x.example.net" = None);
  Alcotest.(check bool) "gig is in the published blocklist" true
    (List.mem "gig" Hloc.blocklist)

let test_hloc_confirmation_bias () =
  (* a custom code it cannot interpret ("ash" meaning Ashburn) resolves
     via the dictionary to Nashua; with only candidate-nearest VPs
     consulted, HLOC can accept geographically wrong hints that Hoiho's
     all-VP test rejects *)
  let sites = [ (Helpers.city_st "ashburn" "us" "va", "ash", 1) ] in
  let ds, routers, _ = Helpers.suffix_fixture sites in
  let r = List.hd routers in
  let h = List.hd r.Router.hostnames in
  match Hloc.infer db ds r h with
  | Some city ->
      (* whichever way the bias falls, it must not invent Ashburn: the
         dictionary has no "ash" -> Ashburn entry *)
      Alcotest.(check bool) "never the custom meaning" true
        (city.Hoiho_geodb.City.name <> "ashburn")
  | None -> ()

(* --- undns --- *)

let undns_table () =
  [
    ( "example.net",
      [ ("lhr", Helpers.city "london" "gb"); ("fra", Helpers.city "frankfurt" "de") ] );
  ]

let test_undns_full_coverage () =
  let u = Undns.make ~coverage:1.0 ~seed:1 (undns_table ()) in
  Alcotest.(check int) "two entries" 2 (Undns.n_entries u);
  (match Undns.infer u "ae1.cr1.lhr15.example.net" with
  | Some city -> Alcotest.(check string) "london" "london" city.Hoiho_geodb.City.name
  | None -> Alcotest.fail "should infer");
  Alcotest.(check bool) "unknown code" true
    (Undns.infer u "ae1.cr1.sea2.example.net" = None);
  Alcotest.(check bool) "unknown suffix" true
    (Undns.infer u "ae1.cr1.lhr15.other.org" = None)

let test_undns_zero_coverage () =
  let u = Undns.make ~coverage:0.0 ~seed:1 (undns_table ()) in
  Alcotest.(check int) "empty" 0 (Undns.n_entries u)

let test_undns_deterministic () =
  let n1 = Undns.n_entries (Undns.make ~coverage:0.5 ~seed:7 (undns_table ())) in
  let n2 = Undns.n_entries (Undns.make ~coverage:0.5 ~seed:7 (undns_table ())) in
  Alcotest.(check int) "same subset size" n1 n2

(* --- degraded input: all three baselines must skip, not misgeolocate,
   malformed hostnames (empty labels, missing suffix) --- *)

let test_drop_degraded_input () =
  let ds, _ = fixture_ds () in
  let rules = Drop.learn db ds in
  (* known-bug repro: "..lhr4" split into labels ["";"";"lhr4"] used to
     satisfy the learned 3-label rule and answer London for a name that
     is not a well-formed hostname at all *)
  Alcotest.(check bool) "empty labels skipped" true
    (Drop.infer rules db "..lhr4.example.net" = None);
  Alcotest.(check bool) "leading dot skipped" true
    (Drop.infer rules db ".cr9.lhr4.example.net" = None);
  Alcotest.(check bool) "missing suffix skipped" true
    (Drop.infer rules db "po1.cr9.lhr4" = None);
  (* and a clean hostname still infers after the guard *)
  Alcotest.(check bool) "clean input still works" true
    (Drop.infer rules db "po1.cr9.lhr4.example.net" <> None)

let test_hloc_degraded_input () =
  let ds, routers = fixture_ds () in
  let r = List.hd routers in
  (* known-bug repro: dropping the suffix of "lhr4..example.net" leaves
     prefix "lhr4.", whose tokens still contain "lhr" — keyword search
     used to misgeolocate the malformed name to London *)
  Alcotest.(check bool) "empty label skipped" true
    (Hloc.infer db ds r "lhr4..example.net" = None);
  Alcotest.(check bool) "missing suffix skipped" true
    (Hloc.infer db ds r "po1.cr9.lhr4" = None);
  Alcotest.(check bool) "bare suffix skipped" true
    (Hloc.infer db ds r "example.net" = None);
  Alcotest.(check bool) "clean input still works" true
    (Hloc.infer db ds r "po1.cr9.lhr4.example.net" <> None)

let test_undns_degraded_input () =
  let u = Undns.make ~coverage:1.0 ~seed:1 (undns_table ()) in
  (* known-bug repro: prefix "lhr." of "lhr..example.net" tokenizes to
     ["lhr"], which used to hit the codebook and answer London *)
  Alcotest.(check bool) "empty label skipped" true
    (Undns.infer u "lhr..example.net" = None);
  Alcotest.(check bool) "missing suffix skipped" true
    (Undns.infer u "ae1.cr1.lhr15" = None);
  Alcotest.(check bool) "bare suffix skipped" true
    (Undns.infer u "example.net" = None);
  Alcotest.(check bool) "clean input still works" true
    (Undns.infer u "ae1.cr1.lhr15.example.net" <> None)

let suites =
  [
    ( "baselines.drop",
      [
        tc "learns rule" test_drop_learns_rule;
        tc "infer" test_drop_infer;
        tc "dictionary verbatim" test_drop_dictionary_verbatim;
        tc "staleness" test_drop_staleness;
        tc "unknown suffix" test_drop_unknown_suffix;
        tc "degraded input skipped" test_drop_degraded_input;
      ] );
    ( "baselines.hloc",
      [
        tc "basic" test_hloc_basic;
        tc "needs ping" test_hloc_needs_ping;
        tc "blocklist" test_hloc_blocklist;
        tc "confirmation bias" test_hloc_confirmation_bias;
        tc "degraded input skipped" test_hloc_degraded_input;
      ] );
    ( "baselines.undns",
      [
        tc "full coverage" test_undns_full_coverage;
        tc "zero coverage" test_undns_zero_coverage;
        tc "deterministic" test_undns_deterministic;
        tc "degraded input skipped" test_undns_degraded_input;
      ] );
  ]
