(* The indexed recode pipeline must be invisible: every Stackmap_index
   and Interval_map lookup returns exactly what the linear scan it
   replaced would have, and a fully indexed migration stays
   deterministic down to the image bytes. *)

open Dapper_binary
module Link = Dapper_codegen.Link

let check = Alcotest.check

(* ----- random stack maps ----- *)

let gen_lv_key =
  QCheck.Gen.(
    oneof
      [ map (fun i -> Stackmap.Slot i) (int_range 0 15);
        map (fun i -> Stackmap.Temp i) (int_range 0 15) ])

let gen_ty = QCheck.Gen.oneofl [ Stackmap.Lv_i64; Stackmap.Lv_f64; Stackmap.Lv_ptr ]

let gen_loc =
  QCheck.Gen.(
    oneof
      [ map (fun r -> Stackmap.Reg r) (int_range 0 30);
        map (fun o -> Stackmap.Frame (-8 * o)) (int_range 1 32) ])

(* Names drawn from a tiny alphabet so duplicate-name lookups get
   exercised. *)
let gen_lv_name = QCheck.Gen.oneofl [ "a"; "b"; "c"; "x"; "tmp" ]

let gen_live =
  QCheck.Gen.(
    gen_lv_key >>= fun lv_key ->
    gen_lv_name >>= fun lv_name ->
    gen_ty >>= fun lv_ty ->
    oneofl [ 8; 16; 24 ] >>= fun lv_size ->
    gen_loc >>= fun lv_loc ->
    return { Stackmap.lv_key; lv_name; lv_ty; lv_size; lv_loc })

let gen_kind =
  QCheck.Gen.(
    oneof
      [ return Stackmap.Entry;
        map (fun n -> Stackmap.Call_site { cs_nargs = n }) (int_range 0 6);
        return Stackmap.Backedge ])

(* ep ids are unique within a function (a stack-map invariant the
   codegen maintains); gaps and ordering are arbitrary. *)
let gen_eqpoint base_addr i =
  QCheck.Gen.(
    int_range 0 1 >>= fun gap ->
    gen_kind >>= fun ep_kind ->
    int_range 0 200 >>= fun off ->
    int_range 1 8 >>= fun resume_off ->
    list_size (int_range 0 5) gen_live >>= fun ep_live ->
    let ep_addr = Int64.add base_addr (Int64.of_int off) in
    return
      { Stackmap.ep_id = (2 * i) + gap; ep_kind; ep_addr;
        ep_resume = Int64.add ep_addr (Int64.of_int resume_off); ep_live })

let gen_func_map index base_addr =
  QCheck.Gen.(
    int_range 0 3 >>= fun name_pick ->
    int_range 32 256 >>= fun fm_code_size ->
    int_range 0 30 >>= fun frame_slots ->
    bool >>= fun fm_leaf ->
    int_range 0 6 >>= fun neps ->
    List.fold_left
      (fun acc i ->
        acc >>= fun eps ->
        gen_eqpoint base_addr i >>= fun ep -> return (ep :: eps))
      (return []) (List.init neps Fun.id)
    >>= fun eqpoints ->
    ignore index;
    return
      { Stackmap.fm_name = Printf.sprintf "f%d" name_pick;
        fm_addr = base_addr; fm_code_size; fm_frame_size = 8 * frame_slots;
        fm_saved = []; fm_promoted = []; fm_leaf;
        fm_eqpoints = List.rev eqpoints })

(* Function address ranges are non-overlapping and increasing, as in a
   real text section. *)
let gen_maps =
  QCheck.Gen.(
    int_range 1 8 >>= fun nfuncs ->
    let rec go i addr acc =
      if i >= nfuncs then return (List.rev acc)
      else
        gen_func_map i addr >>= fun fm ->
        int_range 0 64 >>= fun gap ->
        go (i + 1)
          (Int64.add addr (Int64.of_int (fm.Stackmap.fm_code_size + gap)))
          (fm :: acc)
    in
    go 0 0x40_0000L [])

let arb_maps = QCheck.make ~print:(fun maps -> string_of_int (List.length maps)) gen_maps

(* ----- linear reference lookups ----- *)

let lin_eqpoint_by_id maps fn id =
  Option.bind (Stackmap.find_func maps fn) (fun fm -> Stackmap.eqpoint_by_id fm id)

let lin_eqpoint_by_resume maps fn a =
  Option.bind (Stackmap.find_func maps fn) (fun fm -> Stackmap.eqpoint_by_resume fm a)

let lin_eqpoint_at_addr maps fn a =
  Option.bind (Stackmap.find_func maps fn) (fun (fm : Stackmap.func_map) ->
      List.find_opt (fun (ep : Stackmap.eqpoint) -> Int64.equal ep.ep_addr a) fm.fm_eqpoints)

let lin_entry_eqpoint maps fn =
  Option.bind (Stackmap.find_func maps fn) (fun (fm : Stackmap.func_map) ->
      List.find_opt (fun (ep : Stackmap.eqpoint) -> ep.ep_kind = Stackmap.Entry)
        fm.fm_eqpoints)

let lin_live_value maps fn id key =
  Option.bind (lin_eqpoint_by_id maps fn id) (fun (ep : Stackmap.eqpoint) ->
      List.find_opt (fun (lv : Stackmap.live_value) -> lv.lv_key = key) ep.ep_live)

let lin_live_value_named maps fn id name =
  Option.bind (lin_eqpoint_by_id maps fn id) (fun (ep : Stackmap.eqpoint) ->
      List.find_opt (fun (lv : Stackmap.live_value) -> lv.lv_name = name) ep.ep_live)

let lin_func_of_addr = Stackmap.func_of_addr

(* Every lookup through [ix] returns what the linear scan over [maps]
   returns, on names, ids, addresses, keys and value names drawn from the
   maps (plus a few that match nothing). *)
let agrees_with_scans ix maps =
  let names =
    "missing"
    :: List.map (fun (fm : Stackmap.func_map) -> fm.fm_name) maps
  in
  let ids = List.init 14 Fun.id in
  let addrs =
    List.concat_map
      (fun (fm : Stackmap.func_map) ->
        let ep_addrs =
          List.concat_map
            (fun (ep : Stackmap.eqpoint) -> [ ep.ep_addr; ep.ep_resume ])
            fm.fm_eqpoints
        in
        [ Int64.sub fm.fm_addr 1L; fm.fm_addr;
          Int64.add fm.fm_addr (Int64.of_int (fm.fm_code_size / 2));
          Int64.add fm.fm_addr (Int64.of_int fm.fm_code_size) ]
        @ ep_addrs)
      maps
    @ [ 0L; 0x40_0000L; Int64.max_int ]
  in
  let keys =
    List.concat_map (fun i -> [ Stackmap.Slot i; Stackmap.Temp i ]) (List.init 6 Fun.id)
  in
  let lv_names = [ "a"; "b"; "c"; "x"; "tmp"; "nope" ] in
  List.for_all
    (fun fn ->
      Stackmap_index.find_func ix fn = Stackmap.find_func maps fn
      && Stackmap_index.entry_eqpoint ix fn = lin_entry_eqpoint maps fn
      && List.for_all
           (fun id ->
             Stackmap_index.eqpoint_by_id ix fn id = lin_eqpoint_by_id maps fn id
             && List.for_all
                  (fun key ->
                    Stackmap_index.live_value ix fn id key
                    = lin_live_value maps fn id key)
                  keys
             && List.for_all
                  (fun n ->
                    Stackmap_index.live_value_named ix fn id n
                    = lin_live_value_named maps fn id n)
                  lv_names)
           ids
      && List.for_all
           (fun a ->
             Stackmap_index.eqpoint_by_resume ix fn a
             = lin_eqpoint_by_resume maps fn a
             && Stackmap_index.eqpoint_at_addr ix fn a
                = lin_eqpoint_at_addr maps fn a)
           addrs)
    names
  && List.for_all
       (fun a -> Stackmap_index.func_of_addr ix a = lin_func_of_addr maps a)
       addrs

let qcheck_stackmap_index_equiv =
  QCheck.Test.make ~name:"Stackmap_index lookups equal linear scans" ~count:100
    arb_maps
    (fun maps -> agrees_with_scans (Stackmap_index.handle (Stackmap_index.build maps)) maps)

(* ----- interval map vs linear scan ----- *)

(* Disjoint interval sets built by accumulating positive gaps/widths. *)
let gen_intervals =
  QCheck.Gen.(
    list_size (int_range 0 40) (pair (int_range 0 100) (int_range 1 64))
    >>= fun spec ->
    let _, intervals =
      List.fold_left
        (fun (cursor, acc) (gap, width) ->
          let lo = Int64.of_int (cursor + gap) in
          let hi = Int64.add lo (Int64.of_int width) in
          (cursor + gap + width, (lo, hi, cursor) :: acc))
        (0, []) spec
    in
    (* present the list in reverse order: of_list must sort *)
    return intervals)

let arb_intervals =
  QCheck.make ~print:(fun l -> string_of_int (List.length l)) gen_intervals

let qcheck_interval_map_equiv =
  QCheck.Test.make ~name:"Interval_map.find equals linear first-match scan"
    ~count:200
    QCheck.(pair arb_intervals (small_list (int_range 0 8000)))
    (fun (intervals, extra) ->
      let m = Dapper_util.Interval_map.of_list intervals in
      Dapper_util.Interval_map.disjoint m
      && begin
        let queries =
          List.map Int64.of_int extra
          @ List.concat_map
              (fun (lo, hi, _) -> [ Int64.pred lo; lo; Int64.pred hi; hi ])
              intervals
        in
        List.for_all
          (fun v ->
            let linear =
              List.find_opt
                (fun (lo, hi, _) ->
                  Int64.compare v lo >= 0 && Int64.compare v hi < 0)
                intervals
            in
            Dapper_util.Interval_map.find_interval m v = linear
            && Dapper_util.Interval_map.find m v
               = Option.map (fun (_, _, p) -> p) linear)
          queries
      end)

let test_interval_map_overlap_detected () =
  let m = Dapper_util.Interval_map.of_list [ (0L, 10L, "a"); (5L, 15L, "b") ] in
  check Alcotest.bool "overlap flagged" false (Dapper_util.Interval_map.disjoint m);
  let adjacent = Dapper_util.Interval_map.of_list [ (0L, 10L, "a"); (10L, 15L, "b") ] in
  check Alcotest.bool "adjacent is disjoint" true
    (Dapper_util.Interval_map.disjoint adjacent);
  check Alcotest.bool "empty find" true
    (Dapper_util.Interval_map.find (Dapper_util.Interval_map.of_list []) 3L = None)

(* Migration determinism (byte-identical images + stats over repeated
   rewrites) moved to the session suite, which drives it through the
   conformance oracle at a chosen equivalence point. *)

(* ----- the index a binary carries ----- *)

(* A binary's index answers like [Stackmap_index.build] of its own maps
   (which the property above ties to the linear scans), whichever way
   the binary was made: linked, reshuffled, or given new maps. *)
let test_binary_index_follows_its_maps () =
  let c = Registry_helpers.compute () in
  let linked = c.Link.cp_x86 in
  let shuffled, _ = Dapper.Shuffle.shuffle_binary (Dapper_util.Rng.create 7L) linked in
  let fewer = Binary.with_stackmaps linked (List.tl linked.Binary.bin_stackmaps) in
  List.iter
    (fun (what, (bin : Binary.t)) ->
      check Alcotest.bool what true (agrees_with_scans (Binary.index bin) bin.bin_stackmaps))
    [ ("linked", linked); ("reshuffled", shuffled); ("with_stackmaps", fewer) ]

let suites =
  [ ( "indexes",
      [ QCheck_alcotest.to_alcotest qcheck_stackmap_index_equiv;
        QCheck_alcotest.to_alcotest qcheck_interval_map_equiv;
        Alcotest.test_case "interval map overlap handling" `Quick
          test_interval_map_overlap_detected;
        Alcotest.test_case "binary's index follows its maps" `Quick
          test_binary_index_follows_its_maps ] ) ]
