(* The engine benchmark: one closed-loop client replaying a workload
   against the engine's public API for a fixed time, every answer checked.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Each operation calls, in order, the functions [flockc mine] is built
   from: [Csv.parse_string] + [Catalog.add] (load), [Parse.program] +
   [Lint.lint ~catalog] (front), the planner, [Plan_exec.run_with_report]
   or [Dynamic.run] (execute) and [Csv.to_string] (render).  The last
   line of standard output is one JSON object: the end-to-end metrics
   with [--trace 0]; with [--trace 1], the per-layer metrics of a traced
   half-run plus the tracing overhead against an untraced half-run.
   Run it through [perfbench/run.py], which builds it first. *)

module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Csv = Qf_relational.Csv
module Aggregate = Qf_relational.Aggregate
module Dict = Qf_relational.Dict
module Obs = Qf_obs.Obs
module Governor = Qf_governor.Governor
open Qf_core

let now = Unix.gettimeofday

exception Op_failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Op_failed m)) fmt

(* {1 The stages of one operation}

   Each stage is a [bench.*] span; spans are recorded only while [Obs] is
   enabled, i.e. in the traced phase. *)

let span = Obs.with_span

let load tables =
  span "bench.load" @@ fun () ->
  let cat = Catalog.create () in
  List.iter (fun (name, csv) -> Catalog.add cat name (Csv.parse_string csv)) tables;
  cat

let front cat src =
  span "bench.front" @@ fun () ->
  match Parse.program src with
  | Error e -> fail "parse: %s" e
  | Ok { Parse.views = _ :: _; _ } -> fail "front: unexpected VIEWS section"
  | Ok { Parse.flock; views = [] } ->
    let diags = Qf_analysis.Lint.lint ~catalog:cat src in
    if Qf_analysis.Diagnostic.has_errors diags then
      fail "lint: %s" (Qf_analysis.Diagnostic.render_text ~file:"flock" diags);
    flock

let optimize cat flock =
  span "bench.optimize" @@ fun () ->
  Optimizer.optimize ~clamp:(Qf_analysis.Absint.clamps_of_plan cat) cat flock

let execute cat plan = span "bench.execute" @@ fun () -> Plan_exec.run_with_report cat plan

let render rel = ignore (span "bench.render" @@ fun () -> Csv.to_string rel)

(* {1 Operations and workloads} *)

type outcome = {
  answers : Relation.t list;  (** in the order the workload checks them *)
  steps : Plan_exec.step_report list;  (** of every plan run *)
  plan_results : int;  (** result rows of the plan runs *)
  filters_taken : int;  (** dynamic FILTER steps interposed *)
  csv_bytes : int;  (** CSV text the operation loaded *)
}

let outcome ?(steps = []) ?(plan_results = 0) ?(filters_taken = 0)
    ?(csv_bytes = 0) answers =
  { answers; steps; plan_results; filters_taken; csv_bytes }

let of_reports ?csv_bytes reports =
  outcome ?csv_bytes
    ~steps:(List.concat_map (fun (r : Plan_exec.report) -> r.steps) reports)
    ~plan_results:
      (List.fold_left (fun a (r : Plan_exec.report) -> a + Relation.cardinal r.result) 0 reports)
    (List.map (fun (r : Plan_exec.report) -> r.result) reports)

type instance = {
  next : int -> unit -> outcome;
      (** [next i] prepares operation [i] of a phase (outside the timed
          call) and returns it *)
  references : unit -> unit;  (** computes the reference answers (setup) *)
  check : int -> outcome -> string option;  (** [None] when correct *)
  input_rows : int;
  input_bytes : int;
  result_rows : unit -> (string * int) list;
  memo_bytes : unit -> int;
}

let csv_rows csv =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) csv;
  !n - 1

let parse_flock src =
  match Parse.program src with Ok p -> p.Parse.flock | Error e -> failwith e

let mismatch what got expected =
  if Relation.equal got expected then None
  else
    Some
      (Printf.sprintf "%s: %d answer rows, reference has %d" what
         (Relation.cardinal got) (Relation.cardinal expected))

(* Reference answers of flocks that share one query and differ only in
   their FILTER threshold: [Direct.run]'s own two stages, tabulate and
   then group-and-filter, with the tabulation done once for all of them. *)
let direct_answers cat = function
  | [] -> []
  | (first : Flock.t) :: _ as flocks ->
    let tab = Direct.tabulate cat first in
    List.map
      (fun (f : Flock.t) ->
        Aggregate.group_filter tab ~keys:(Flock.result_columns f)
          ~func:(Filter.to_aggregate f.filter ~head_columns:(Flock.head_columns f))
          ~threshold:f.filter.threshold)
      flocks

(* A cold operation starts from a catalog that has seen no work and must
   not be served by the subplan memo; a catalog that is not cold would
   time a cache, not the engine. *)
let assert_cold_start cat =
  let hits, _, _ = Catalog.memo_stats cat in
  if Catalog.index_stats cat <> (0, 0) || hits <> 0 then
    fail "fresh catalog is not cold (index cache %d/%d, memo hits %d)"
      (fst (Catalog.index_stats cat)) (snd (Catalog.index_stats cat)) hits

let assert_no_memo_hit cat (o : outcome) =
  let hits, _, _ = Catalog.memo_stats cat in
  if hits <> 0 || List.exists (fun (s : Plan_exec.step_report) -> s.memo_hit) o.steps
  then fail "cold operation was served by the subplan memo (%d hits)" hits;
  o

(* pairs_cold: the Fig. 1/2 pair flock at E1's full size; each op is a
   fresh request (new catalog, plan mode), support cycling over 10/20/50.
   The final FILTER step's join, group and SIP kernels do most of the
   work; the memo only misses. *)
let pairs_cold seed =
  let cfg = { Gen.n_baskets = 2500; n_items = 25000; avg_basket = 24; zipf_s = 0.85 } in
  let supports = [| 10; 20; 50 |] in
  let csv = Gen.baskets_csv cfg ~seed in
  let sources = Array.map (fun support -> Gen.basket_flock ~k:2 ~support) supports in
  let refs =
    lazy
      (let cat = Catalog.create () in
       Catalog.add cat "baskets" (Csv.parse_string csv);
       Array.of_list (direct_answers cat (List.map parse_flock (Array.to_list sources))))
  in
  let last = ref (Catalog.create ()) in
  {
    next =
      (fun i () ->
        let cat = load [ "baskets", csv ] in
        last := cat;
        assert_cold_start cat;
        let flock = front cat sources.(i mod 3) in
        let plan = optimize cat flock in
        let report = execute cat plan in
        render report.result;
        assert_no_memo_hit cat (of_reports ~csv_bytes:(String.length csv) [ report ]));
    references = (fun () -> ignore (Lazy.force refs));
    check =
      (fun i o ->
        mismatch
          (Printf.sprintf "pairs support %d" supports.(i mod 3))
          (List.hd o.answers)
          (Lazy.force refs).(i mod 3));
    input_rows = csv_rows csv;
    input_bytes = String.length csv;
    result_rows =
      (fun () ->
        Array.to_list
          (Array.mapi
             (fun j r -> Printf.sprintf "support_%d" supports.(j), Relation.cardinal r)
             (Lazy.force refs)));
    memo_bytes = (fun () -> Catalog.memo_bytes !last);
  }

(* medical_cold: the Fig. 3/5 side-effects flock (negation, four
   relations) at E3's full size; each op a fresh request alternating plan
   and dynamic mode.  CSV load and dictionary encoding take about half
   of an op and the optimizer a tenth; the only workload running Dynamic
   and the anti-join. *)
let medical_cold seed =
  let cfg =
    {
      Gen.n_patients = 8000;
      n_diseases = 20;
      n_symptoms = 12000;
      n_medicines = 2000;
      symptoms_per_disease = 4;
      background_symptoms = 10;
      background_medicines = 3;
      symptom_zipf = 0.5;
      medicine_zipf = 0.5;
      planted = 3;
      side_effect_rate = 0.8;
    }
  in
  let tables = List.combine Gen.medical_names (Gen.medical_csv cfg ~seed) in
  let bytes = List.fold_left (fun a (_, c) -> a + String.length c) 0 tables in
  let src = Gen.medical_flock ~support:20 in
  let refs =
    lazy
      (let cat = Catalog.create () in
       List.iter (fun (n, c) -> Catalog.add cat n (Csv.parse_string c)) tables;
       Direct.run cat (parse_flock src))
  in
  let last = ref (Catalog.create ()) in
  {
    next =
      (fun i () ->
        let cat = load tables in
        last := cat;
        assert_cold_start cat;
        let flock = front cat src in
        let o =
          if i mod 2 = 0 then begin
            let report = execute cat (optimize cat flock) in
            render report.result;
            of_reports ~csv_bytes:bytes [ report ]
          end
          else begin
            let r =
              span "bench.execute" @@ fun () ->
              match Dynamic.run cat flock with Ok r -> r | Error e -> fail "dynamic: %s" e
            in
            render r.answers;
            outcome ~csv_bytes:bytes
              ~filters_taken:
                (List.length (List.filter (fun (d : Dynamic.decision) -> d.filtered) r.trace))
              [ r.answers ]
          end
        in
        assert_no_memo_hit cat o);
    references = (fun () -> ignore (Lazy.force refs));
    check =
      (fun i o ->
        mismatch
          (if i mod 2 = 0 then "medical plan" else "medical dynamic")
          (List.hd o.answers) (Lazy.force refs));
    input_rows = List.fold_left (fun a (_, c) -> a + csv_rows c) 0 tables;
    input_bytes = bytes;
    result_rows = (fun () -> [ "support_20", Relation.cardinal (Lazy.force refs) ]);
    memo_bytes = (fun () -> Catalog.memo_bytes !last);
  }

(* The levelwise a-priori chain (classic a-priori as a flock plan, the
   analyst's choice for k-item sets): the planner stage builds it
   instead of running the cost-based search, whose default parameter sets
   miss the (k-1)-subsets the cross-level memo reuses. *)
let levelwise_plan ~k ~support =
  span "bench.optimize" @@ fun () ->
  snd (Apriori_gen.levelwise_basket ~pred:"baskets" ~k ~support)

let levelwise_cfg = { Gen.n_baskets = 3000; n_items = 600; avg_basket = 8; zipf_s = 0.9 }

(* session_warm: analyst sessions over one catalog, loaded in setup.
   Each op is a round: append ~500 basket rows, mine k=2..4 at support s,
   again at 2s, then rerun the s chain unchanged.  The subplan memo, the
   index cache and statistics invalidation do the work; load does none.
   A session lasts [rounds] rounds and the next one starts again from the
   initial data (reloaded between operations), so round costs do not
   drift with run length.  Answers are checked after the timed phase by
   replaying the appends on a second catalog. *)
let session_warm seed =
  let s = 20 and rounds = 4 in
  let batch_baskets = 63 in
  let csv = Gen.baskets_csv levelwise_cfg ~seed in
  let header = "BID,Item\n" in
  let batch round =
    Gen.basket_batch levelwise_cfg ~seed:((seed * 1_000_003) + round)
      ~first:(levelwise_cfg.n_baskets + ((round - 1) * batch_baskets) + 1)
      ~count:batch_baskets
  in
  let levels = [ 2; 3; 4 ] in
  let src k support = Gen.basket_flock ~k ~support in
  let open_session () =
    let cat = load [ "baskets", csv ] in
    cat, Catalog.find cat "baskets"
  in
  let append cat base text =
    span "bench.append" @@ fun () ->
    Relation.iter (Relation.add base) (Csv.parse_string (header ^ text));
    Catalog.add cat "baskets" base
  in
  let session = ref (open_session ()) and fresh = ref true in
  let chain cat support =
    List.map
      (fun k ->
        ignore (front cat (src k support));
        let report = execute cat (levelwise_plan ~k ~support) in
        render report.result;
        report)
      levels
  in
  let replay = ref None in
  let refs = Hashtbl.create 16 in
  let reference round =
    match Hashtbl.find_opt refs round with
    | Some r -> r
    | None ->
      let cat, base, at =
        match !replay with
        | Some (c, b, at) when at <= round -> c, b, at
        | _ ->
          let c = Catalog.create () in
          Catalog.add c "baskets" (Csv.parse_string csv);
          c, Catalog.find c "baskets", 0
      in
      for r = at + 1 to round do
        Relation.iter (Relation.add base) (Csv.parse_string (header ^ batch r));
        Catalog.add cat "baskets" base
      done;
      replay := Some (cat, base, round);
      let per_level k =
        match direct_answers cat [ parse_flock (src k s); parse_flock (src k (2 * s)) ] with
        | [ low; high ] -> low, high
        | _ -> assert false
      in
      let pairs = List.map per_level levels in
      let r = List.map fst pairs @ List.map snd pairs @ List.map fst pairs in
      Hashtbl.replace refs round r;
      r
  in
  {
    next =
      (fun i ->
        if i mod rounds = 0 then begin
          (* The previous session's catalog and caches are garbage now;
             collecting them here keeps that cost out of the next round. *)
          if not !fresh then begin
            session := open_session ();
            Gc.full_major ()
          end;
          fresh := false
        end;
        let text = batch ((i mod rounds) + 1) in
        fun () ->
          let cat, base = !session in
          append cat base text;
          of_reports (chain cat s @ chain cat (2 * s) @ chain cat s));
    references = ignore;
    check =
      (fun i o ->
        let round = (i mod rounds) + 1 in
        let expected = reference round in
        List.find_map Fun.id
          (List.mapi
             (fun j (got, exp) ->
               let k = List.nth levels (j mod 3) in
               let support = if j / 3 = 1 then 2 * s else s in
               mismatch (Printf.sprintf "round %d k=%d support %d" round k support) got exp)
             (List.combine o.answers expected)));
    input_rows = csv_rows csv;
    input_bytes = String.length csv;
    result_rows =
      (fun () ->
        List.mapi
          (fun j r ->
            ( Printf.sprintf "round1_k%d_support_%d" (List.nth levels (j mod 3))
                (if j / 3 = 1 then 2 * s else s),
              Relation.cardinal r ))
          (List.filteri (fun j _ -> j < 6) (reference 1)));
    memo_bytes = (fun () -> Catalog.memo_bytes (fst !session));
  }

(* spill_governed: the levelwise k=3 chain under a 384 KiB memory budget,
   which forces the join and group-by kernels through their spill paths
   (single unsplittable charges reach ~270 KB on these inputs, so 256 KiB
   fails on some seeds).  The memo is cleared before each op so every
   op executes.  Spill, pager, codec and governor charging do a large
   share of the work here and none in the other workloads. *)
let spill_budget = 384 * 1024

let spill_governed seed =
  let k = 3 and support = 20 in
  let csv = Gen.baskets_csv levelwise_cfg ~seed in
  let src = Gen.basket_flock ~k ~support in
  let cat = load [ "baskets", csv ] in
  let refs = lazy (Direct.run cat (parse_flock src)) in
  {
    next =
      (fun _ () ->
        Catalog.memo_clear cat;
        ignore (front cat src);
        let plan = levelwise_plan ~k ~support in
        let g = Governor.create ~mem_budget:spill_budget () in
        let report = Governor.with_ctx g (fun () -> execute cat plan) in
        render report.result;
        let st = Governor.stats g in
        if st.spill_partitions = 0 then fail "the %d-byte budget did not spill" spill_budget;
        of_reports [ report ]);
    references = (fun () -> ignore (Lazy.force refs));
    check = (fun _ o -> mismatch "levelwise k=3" (List.hd o.answers) (Lazy.force refs));
    input_rows = csv_rows csv;
    input_bytes = String.length csv;
    result_rows = (fun () -> [ "k3_support_20", Relation.cardinal (Lazy.force refs) ]);
    memo_bytes = (fun () -> Catalog.memo_bytes cat);
  }

let workloads =
  [
    "pairs_cold", pairs_cold;
    "medical_cold", medical_cold;
    "session_warm", session_warm;
    "spill_governed", spill_governed;
  ]

(* {1 Timing} *)

type record = {
  op_id : int;  (** unique within the run; the [op] attribute of [bench.op] *)
  index : int;  (** position within its phase *)
  latency : float;
  result : (outcome, string) result;
}

let describe = function
  | Op_failed m -> m
  | Governor.Over_budget { requested; used; budget } ->
    Printf.sprintf "Over_budget (requested %d, used %d, budget %d)" requested used budget
  | Governor.Deadline_exceeded _ -> "Deadline_exceeded"
  | Governor.Cancelled -> "Cancelled"
  | e -> Printexc.to_string e

let next_op_id = ref 0

type phase = {
  records : record list;  (** in execution order *)
  wall : float;  (** time spent in operations and between them, less their preparation *)
  minor_words : float;
  major_collections : int;
}

(* Closed loop, one client: the next operation starts when the previous
   one returns, until [seconds] have elapsed.  Each phase starts from a
   compacted heap and each operation after a full major collection, so
   an operation pays for the garbage it makes itself but not for what
   the previous one left; without it the heap size, and with it latency,
   settled differently from run to run. *)
let run_phase inst ~seconds ~traced =
  Gc.compact ();
  Obs.reset ();
  Obs.set_enabled traced;
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let records = ref [] in
  let index = ref 0 and prep = ref 0. in
  while !index = 0 || now () -. t0 < seconds do
    let p0 = now () in
    let op = inst.next !index in
    Gc.full_major ();
    prep := !prep +. (now () -. p0);
    let op_id = !next_op_id in
    incr next_op_id;
    let start = now () in
    let result =
      match span "bench.op" ~attrs:[ "op", Obs.Int op_id ] op with
      | o -> Ok o
      | exception e -> Error (describe e)
    in
    records := { op_id; index = !index; latency = now () -. start; result } :: !records;
    incr index
  done;
  let wall = now () -. t0 -. !prep in
  Obs.set_enabled false;
  let gc1 = Gc.quick_stat () in
  {
    records = List.rev !records;
    wall;
    minor_words = gc1.minor_words -. gc0.minor_words;
    major_collections = gc1.major_collections - gc0.major_collections;
  }

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let ratio a b = if b = 0. then 0. else a /. b
let throughput p = float_of_int (List.length p.records) /. p.wall

(* {1 Output} *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let metrics_json metrics =
  json_object
    (List.map
       (fun (name, unit, v) ->
         name, json_object [ "value", json_number v; "unit", json_string unit ])
       metrics)

let qf_variables () =
  Array.to_list (Unix.environment ())
  |> List.filter (String.starts_with ~prefix:"QF_")
  |> List.sort compare

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Spill directories this process left behind (the governor removes its
   directory on every exit, so any is a leak). *)
let leaked_spill_dirs () =
  let prefix = Printf.sprintf "qf_spill.%d." (Unix.getpid ()) in
  Sys.readdir (Filename.get_temp_dir_name ())
  |> Array.to_list
  |> List.filter (String.starts_with ~prefix)

(* {1 Metrics} *)

let end_to_end ~untraced ~failed ~attempted ~peak_heap_mb ~setups =
  let latencies = List.map (fun r -> r.latency) untraced.records in
  [
    "latency_p50_s", "s", quantile 0.5 latencies;
    "latency_p90_s", "s", quantile 0.9 latencies;
    "throughput_ops_s", "1/s", throughput untraced;
    "ok_ratio", "ratio", 1. -. ratio (float_of_int failed) (float_of_int attempted);
    "peak_heap_mb", "MiB", peak_heap_mb;
    "setup_s", "s", median setups;
  ]

(* Per operation of the traced phase, except the GC figures (untraced
   phase) and the tracing overhead (traced against untraced). *)
let per_layer inst ~untraced ~traced ~(report : Obs.report) (tr : Trace.t) =
  let outcomes = List.filter_map (fun r -> Result.to_option r.result) traced.records in
  let per_op v = v /. float_of_int (List.length traced.records) in
  let sum f = List.fold_left (fun a o -> a +. f o) 0. outcomes in
  let steps = List.concat_map (fun o -> o.steps) outcomes in
  let sum_steps f = List.fold_left (fun a s -> a +. float_of_int (f s)) 0. steps in
  let self = Trace.get tr.self_s and incl = Trace.get tr.inclusive_s in
  let attr = Trace.get tr.attr_sum in
  let joins a = attr ("join.equi." ^ a) +. attr ("join.semi." ^ a) +. attr ("join.anti." ^ a) in
  let c = Trace.counter report in
  let hit_ratio hit miss = ratio (c hit) (c hit +. c miss) in
  let untraced_per_op v = v /. float_of_int (List.length untraced.records) in
  [
    "csv.load_s", "s/op", per_op (self "csv.load");
    "csv.load_mb_s", "MB/s", ratio (sum (fun o -> float_of_int o.csv_bytes) /. 1e6) (self "csv.load");
    "dict.size", "count", float_of_int (Dict.size ());
    "front.parse_lint_s", "s/op", per_op (self "front");
    "optimizer.optimize_s", "s/op", per_op (self "optimizer");
    "apriori.candidate_subqueries", "count/op", per_op (c "apriori.candidate_subqueries");
    "plan_exec.run_s", "s/op", per_op (incl "plan.run");
    "plan_exec.self_s", "s/op", per_op (self "plan_exec");
    "plan_exec.tabulated_rows", "rows/op", per_op (sum_steps (fun s -> s.tabulated_rows));
    ( "plan_exec.rows_per_result", "ratio",
      ratio (sum_steps (fun s -> s.tabulated_rows)) (sum (fun o -> float_of_int o.plan_results)) );
    ( "plan_exec.filter_pass_ratio", "ratio",
      ratio (sum_steps (fun s -> s.survivors)) (sum_steps (fun s -> s.groups)) );
    "plan_exec.memo_hit_steps", "count/op", per_op (sum_steps (fun s -> Bool.to_int s.memo_hit));
    "dynamic.run_s", "s/op", per_op (incl "dynamic.run");
    "dynamic.filters_taken", "count/op", per_op (sum (fun o -> float_of_int o.filters_taken));
    "join.self_s", "s/op", per_op (self "join");
    "join.probe_rows", "rows/op", per_op (joins "probe_rows");
    "join.build_rows", "rows/op", per_op (joins "build_rows");
    "aggregate.self_s", "s/op", per_op (self "aggregate");
    ( "aggregate.survivor_ratio", "ratio",
      ratio (attr "aggregate.group_filter.survivors") (attr "aggregate.group_filter.candidates") );
    "sip.rows_pruned", "rows/op", per_op (c "sip.rows_pruned");
    "sip.reducer_built", "count/op", per_op (c "sip.reducer_built");
    "memo.hit_ratio", "ratio", hit_ratio "memo.hit" "memo.miss";
    "memo.evict", "count/op", per_op (c "memo.evict");
    "memo.bytes", "bytes", float_of_int (inst.memo_bytes ());
    "index_cache.hit_ratio", "ratio", hit_ratio "index_cache.hits" "index_cache.misses";
    "index_cache.evict", "count/op", per_op (c "index_cache.evict");
    "catalog.append_s", "s/op", per_op (self "catalog.append");
    "governor.spill.partitions", "count/op", per_op (c "governor.spill.partitions");
    "governor.spill.bytes", "bytes/op", per_op (c "governor.spill.bytes");
    "governor.spill.rows", "rows/op", per_op (c "governor.spill.rows");
    ( "spill.bytes_per_input_byte", "ratio",
      ratio (per_op (c "governor.spill.bytes")) (float_of_int inst.input_bytes) );
    "pool.chunk.tasks", "count/op", per_op (c "pool.chunk.tasks");
    "pool.chunk.time_total_s", "s/op", per_op (Trace.gauge report "pool.chunk.time_total_s");
    "gc.minor_mwords_per_op", "Mwords/op", untraced_per_op (untraced.minor_words /. 1e6);
    ( "gc.major_collections_per_op", "count/op",
      untraced_per_op (float_of_int untraced.major_collections) );
    "csv.render_s", "s/op", per_op (self "csv.render");
    "trace.overhead_ratio", "ratio", ratio (throughput traced) (throughput untraced);
  ]

(* {1 Main} *)

(* Set-up repeats at least [min_setups] times and until [setup_budget_s]
   is spent (at most [max_setups] times); the median is reported. *)
let min_setups = 3
let max_setups = 10
let setup_budget_s = 3.0

(* Result and trace files, relative to the directory the run starts in. *)
let results_dir = ".bench_build/results"

let json_list items = "[" ^ String.concat ", " items ^ "]"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let commit = ref "unknown" and nproc = ref 0 in
  let spec =
    [
      "--workload", Arg.Set_string workload, "NAME  one of the workloads";
      "--seed", Arg.Set_int seed, "N  input seed";
      "--seconds", Arg.Set_float seconds, "S  measured time";
      "--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics";
      "--commit", Arg.Set_string commit, "SHA  recorded with the result";
      "--nproc", Arg.Set_int nproc, "N  recorded with the result";
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let create =
    match List.assoc_opt !workload workloads with
    | Some c -> c
    | None ->
      Printf.eprintf "unknown workload %S; expected one of %s\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  if (!trace <> 0 && !trace <> 1) || !seconds <= 0. then begin
    prerr_endline usage;
    exit 2
  end;
  let qf = qf_variables () in
  if qf <> [] then
    Printf.eprintf
      "\n\
       ************************************************************\n\
       WARNING: QF_* variables are set; they change the program\n\
       being measured: %s\n\
       ************************************************************\n\n\
       %!"
      (String.concat " " qf);
  (* Set-up, first repetition: inputs (and the session's initial load)
     now; the reference answers after the timed phases, so that the
     oracle's working set stays out of the operations' peak heap. *)
  let t0 = now () in
  let inst = create !seed in
  let first_setup = now () -. t0 in
  let untraced, traced =
    if !trace = 0 then run_phase inst ~seconds:!seconds ~traced:false, None
    else
      let untraced = run_phase inst ~seconds:(!seconds /. 2.) ~traced:false in
      untraced, Some (run_phase inst ~seconds:(!seconds /. 2.) ~traced:true)
  in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let report = Obs.report () in
  Gc.compact ();
  let t0 = now () in
  inst.references ();
  let setups = ref [ first_setup +. (now () -. t0) ] in
  let spent () = List.fold_left ( +. ) 0. !setups in
  while
    List.length !setups < min_setups
    || (spent () < setup_budget_s && List.length !setups < max_setups)
  do
    let t0 = now () in
    (create !seed).references ();
    setups := (now () -. t0) :: !setups
  done;
  let setups = List.rev !setups in
  (* Check every answer, outside the timed phases. *)
  let records = untraced.records @ Option.fold ~none:[] ~some:(fun p -> p.records) traced in
  let errors =
    List.filter_map
      (fun r ->
        Option.map (Printf.sprintf "op %d: %s" r.op_id)
          (match r.result with Error e -> Some e | Ok o -> inst.check r.index o))
      records
  in
  let attempted = List.length records and failed = List.length errors in
  let metrics, violations =
    match traced with
    | None -> end_to_end ~untraced ~failed ~attempted ~peak_heap_mb ~setups, []
    | Some traced ->
      let wall_of = Hashtbl.create 64 in
      List.iter (fun r -> Hashtbl.replace wall_of r.op_id r.latency) records;
      let tr =
        Trace.analyse report ~op_wall:(fun id ->
            Option.value ~default:0. (Hashtbl.find_opt wall_of id))
      in
      per_layer inst ~untraced ~traced ~report tr, tr.violations
  in
  let problems =
    errors @ violations
    @ List.map (fun d -> "leaked spill directory " ^ d) (leaked_spill_dirs ())
  in
  let correct = problems = [] in
  List.iteri (fun i p -> if i < 20 then Printf.eprintf "perfbench: %s\n" p) problems;
  let samples = List.length untraced.records in
  let env =
    json_object
      [
        "workload", json_string !workload;
        "seed", string_of_int !seed;
        "seconds", json_number !seconds;
        "trace", string_of_int !trace;
        "commit", json_string !commit;
        "nproc", string_of_int !nproc;
        "recommended_domain_count", string_of_int (Domain.recommended_domain_count ());
        "ocaml_version", json_string Sys.ocaml_version;
        "qf_variables", json_list (List.map json_string qf);
        "input_rows", string_of_int inst.input_rows;
        "input_csv_bytes", string_of_int inst.input_bytes;
        ( "reference_result_rows",
          json_object (List.map (fun (k, v) -> k, string_of_int v) (inst.result_rows ())) );
        "latency_samples", string_of_int samples;
        "setup_samples_s", json_list (List.map json_number setups);
      ]
  in
  let result =
    json_object
      [
        "correct", string_of_bool correct;
        "attempted", string_of_int attempted;
        "failed", string_of_int failed;
        "metrics", metrics_json metrics;
      ]
  in
  mkdir_p results_dir;
  let base = Filename.concat results_dir (Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace) in
  let op_json r =
    json_object
      [
        "op", string_of_int r.op_id;
        "latency_s", json_number r.latency;
        "error", (match r.result with Ok _ -> "null" | Error e -> json_string e);
      ]
  in
  write_file (base ^ ".json")
    (json_object
       [
         "env", env;
         "result", result;
         "problems", json_list (List.map json_string problems);
         "ops", json_list (List.map op_json records);
       ]
    ^ "\n");
  Option.iter (fun _ -> write_file (base ^ ".spans.json") (Obs.render_json report)) traced;
  Printf.printf "perfbench %s seed %d: %d ops (%d failed, failed_ratio %g), latency over %d samples\n"
    !workload !seed attempted failed (ratio (float_of_int failed) (float_of_int attempted)) samples;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-32s %14.6g %s\n" name v unit) metrics;
  print_endline (json_object [ "env", env ]);
  print_endline result;
  exit (if correct then 0 else 1)
