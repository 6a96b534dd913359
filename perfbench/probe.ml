(* The benchmark's in-process half: the traced run and the output checks
   that need the libraries.

     probe.exe trace SPEC.json         per-layer metrics of one workload
     probe.exe check-large SPEC.json   residual, sums and values of large
     probe.exe check-daemon SPEC.json  daemon query values vs Session.query

   perfbench/run.py writes SPEC.json.  Human-readable lines go first; the
   last stdout line is one JSON object with "metrics", "checks",
   "failed" and "traced_run_s".

   Spans are recorded here, around calls into each layer's public
   functions, never inside the program: each has a name, a start, an end
   and a parent, stays in memory and is written out when the run ends.
   A span is named after the per-layer metric it feeds; a layer the
   workload never reaches still gets its (empty) span, so its time reads
   as measured rather than as a constant. *)

module Json = Sharpe_server.Json
module Session = Sharpe_lang.Interp.Session
module Parser = Sharpe_lang.Parser
module Diag = Sharpe_numerics.Diag
module Pool = Sharpe_numerics.Pool
module Sparse = Sharpe_numerics.Sparse
module Linsolve = Sharpe_numerics.Linsolve
module Structhash = Sharpe_numerics.Structhash
module Net = Sharpe_petri.Net
module Reach = Sharpe_petri.Reach
module Srn = Sharpe_petri.Srn
module Ctmc = Sharpe_markov.Ctmc
module Pepa = Sharpe_pepa.Pepa

(* ---- spans and metrics ------------------------------------------------- *)

external monotonic_ns : unit -> int = "perfbench_monotonic_ns" [@@noalloc]

let now () = float_of_int (monotonic_ns ()) *. 1e-9

type span = { id : int; name : string; parent : int; start : float; stop : float }

let spans = ref []
let stack = ref []
let next_id = ref 0

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let start = now () in
  Fun.protect f ~finally:(fun () ->
      let stop = now () in
      stack := List.tl !stack;
      spans := { id; name; parent; start; stop } :: !spans)

let idle name = span name ignore

(* self time: a span's duration minus the part its children cover *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let own =
        s.stop -. s.start
        -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace self s.name
        (own +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    !spans;
  self

let write_spans path =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity !spans in
  let one s =
    Json.Obj
      [ ("id", Json.Num (float_of_int s.id)); ("name", Json.Str s.name);
        ("parent", Json.Num (float_of_int s.parent));
        ("start_s", Json.Num (s.start -. t0)); ("end_s", Json.Num (s.stop -. t0)) ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string (Json.List (List.rev_map one !spans)));
  output_char oc '\n';
  close_out oc

let metrics = ref []
let set name v = metrics := (name, v) :: List.remove_assoc name !metrics
let seti name n = set name (float_of_int n)
let checks = ref 0
let failed = ref 0

let check label ok =
  incr checks;
  if not ok then begin
    incr failed;
    Printf.printf "check failed: %s\n" label
  end

let rel_close ?(tol = 1e-9) a b =
  Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

(* ---- spec -------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let spec_of path =
  match Json.parse (read_file path) with
  | Ok j -> j
  | Error e -> failwith ("spec: " ^ e)

let field k j =
  match Json.member k j with Some v -> v | None -> failwith ("spec: no " ^ k)

let str k j = Option.get (Json.to_str (field k j))
let num k j = Option.get (Json.to_float (field k j))
let list = function Json.List l -> l | _ -> failwith "spec: not a list"
let floats k j = List.map (fun x -> Option.get (Json.to_float x)) (list (field k j))

(* ---- layer probes ------------------------------------------------------ *)

let inf_norm v = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 v

(* ||pi Q||_inf / ||Q||_inf, the steady-state residual the checks bound *)
let residual q pi =
  let rows = Array.init (Sparse.rows q) (fun i ->
      Sparse.fold_row q i (fun acc _ v -> acc +. Float.abs v) 0.0)
  in
  inf_norm (Sparse.vec_mat pi q) /. inf_norm rows

(* the Diag solver that answered, as a stable code: the printed name is
   on the human line *)
let rung_code name =
  let prefixes =
    [ ("direct", 2); ("gauss_seidel", 3); ("sor", 4); ("bicgstab", 5); ("gmres", 6) ]
  in
  List.fold_left
    (fun acc (p, c) ->
      if String.length name >= String.length p
         && String.sub name 0 (String.length p) = p
      then c
      else acc)
    7 prefixes

let steady_layer q =
  Linsolve.reset_dense_count ();
  let pi, recs =
    span "linsolve.steady_s" (fun () ->
        Diag.capture (fun () -> Linsolve.ctmc_steady_state q))
  in
  let answered =
    List.filter (fun r -> r.Diag.iterations <> None && r.Diag.severity = Diag.Info) recs
  in
  let name, iters =
    match List.rev answered with
    | r :: _ -> (r.Diag.solver, Option.get r.Diag.iterations)
    | [] -> ("direct", 0)
  in
  Printf.printf "linsolve: answered by %s (%d iterations, %d records)\n" name
    iters (List.length recs);
  seti "linsolve.iterations" iters;
  set "linsolve.residual" (residual q pi);
  seti "linsolve.rung" (rung_code name);
  seti "linsolve.dense_materializations" (Linsolve.dense_count ());
  pi

let lambda_t recs =
  List.fold_left
    (fun acc r ->
      match String.split_on_char '=' r.Diag.message |> List.rev with
      | last :: _ when r.Diag.solver = "ctmc_transient" -> (
          match float_of_string_opt (String.trim (String.map
                   (fun c -> if c = ')' then ' ' else c) last)) with
          | Some v -> Float.max acc v
          | None -> acc)
      | _ -> acc)
    0.0 recs

let ctmc_transient_layer c ~init t =
  let _, recs =
    span "ctmc.transient_s" (fun () ->
        Diag.capture (fun () -> Ctmc.transient c ~init t))
  in
  set "ctmc.lambda_t" (lambda_t recs)

(* SpMV on the workload's generator: seconds per product, serial and
   row-partitioned, plus the computed work of one product *)
let sparse_layer q =
  let n = Sparse.rows q and nnz = Sparse.nnz q in
  let x = Array.make n (1.0 /. float_of_int n) and y = Array.make n 0.0 in
  let reps = max 20 (20_000_000 / max 1 nnz) in
  let per name mv =
    span name (fun () -> for _ = 1 to reps do mv q x y done)
  in
  per "sparse.spmv_s" Sparse.mat_vec_into;
  per "sparse.par_spmv_s" Sparse.par_mat_vec_into;
  seti "sparse.spmv_ops" (2 * nnz);
  (* value + column index per entry, row pointers, x gathered per entry,
     y written once; 8-byte floats and ints *)
  seti "sparse.spmv_bytes" ((8 * (nnz + nnz + (n + 1))) + (8 * nnz) + (8 * n));
  reps

let pool_layer () =
  let sizes = [ 10; 11; 401 ] and reps = 200 in
  span "pool.run_overhead_us" (fun () ->
      for _ = 1 to reps do
        List.iter (fun k -> ignore (Pool.run k (fun i -> i))) sizes
      done);
  reps * List.length sizes

let idle_srn_layers () =
  List.iter idle
    [ "reach.explore_s"; "reach.build_s"; "reach.reweight_s";
      "srn.transient_many_s" ];
  List.iter (fun m -> seti m 0)
    [ "reach.markings"; "reach.tangible"; "reach.vanishing"; "srn.ladder_rungs" ]

(* Reach, Srn, Ctmc, Linsolve and Sparse on a native replica net.
   [reweights] are the nets of a rates-only sweep over the same
   structure.  Returns the solved replica. *)
let srn_layers ~net ~reweights ~times =
  let sk = span "reach.explore_s" (fun () -> Reach.explore_skeleton net) in
  let g = span "reach.build_s" (fun () -> Reach.build ~skeleton:sk net) in
  span "reach.reweight_s" (fun () ->
      List.iter (fun n -> ignore (Reach.edge_weights n sk)) reweights);
  seti "reach.markings" (Reach.n_markings sk);
  seti "reach.tangible" (Reach.n_tangible g);
  seti "reach.vanishing" (Reach.n_vanishing g);
  let s = Srn.solve ~skeleton:sk net in
  let _, recs =
    span "srn.transient_many_s" (fun () ->
        Diag.capture (fun () -> Srn.transient_many s times))
  in
  seti "srn.ladder_rungs"
    (List.length (List.filter (fun r -> r.Diag.solver = "ctmc_transient") recs));
  let c = Reach.ctmc g in
  ctmc_transient_layer c ~init:(Reach.initial_distribution g)
    (List.fold_left Float.max 0.0 times);
  ignore (steady_layer (Ctmc.generator c));
  (s, Ctmc.generator c)

(* ---- replica nets ------------------------------------------------------ *)

let one _ = 1

let trans ?(kind = Net.Timed) ?(priority = 0) ?(guard = fun _ -> true) name rate
    ~ins ~outs ?(inh = []) () =
  { Net.t_name = name; kind; rate; guard; priority; inputs = ins;
    outputs = outs; inhibitors = inh }

(* gen.py's wfs model: places wsup fsup wst wsdn fsdn *)
let wfs_net ~n ~rates c =
  let r k = num k rates in
  let wsfl = r "wsfl" and fsfl = r "fsfl" and wsrp = r "wsrp" and fsrp = r "fsrp" in
  Net.build
    ~places:[ ("wsup", n); ("fsup", 1); ("wst", 0); ("wsdn", 0); ("fsdn", 0) ]
    ~transitions:
      [ trans "wsfl" (fun m -> float_of_int m.(0) *. wsfl) ~ins:[ (0, one) ]
          ~outs:[ (2, one) ] ~inh:[ (4, one) ] ();
        trans "fsfl" (fun _ -> fsfl) ~ins:[ (1, one) ] ~outs:[ (4, one) ]
          ~inh:[ (3, fun _ -> 2) ] ();
        trans "wsrp" (fun _ -> wsrp) ~ins:[ (3, one) ] ~outs:[ (0, one) ]
          ~inh:[ (4, one) ] ();
        trans "fsrp" (fun _ -> fsrp) ~ins:[ (4, one) ] ~outs:[ (1, one) ] ();
        trans "wscv" ~kind:Net.Immediate (fun _ -> c) ~ins:[ (2, one) ]
          ~outs:[ (3, one) ] ();
        trans "wsuc" ~kind:Net.Immediate (fun _ -> 1.0 -. c)
          ~ins:[ (2, one); (1, one) ] ~outs:[ (3, one); (4, one) ] () ]

let wfs_avail m = if m.(0) > 0 && m.(1) = 1 then 1.0 else 0.0

(* examples/sharpe/atm.sharpe's net with its bound constants, guard, rate,
   cardinality and reward functions as native closures, in the same
   place and transition order the interpreter builds *)
module Atm = struct
  let a1 = 0.0269163 and a2 = 0.0269163 and b1 = 0.00672908 and b2 = 0.00672908
  let lambda11 = 1.5058 and lambda21 = 1.5058
  let lambda12 = 0.00301161 and lambda22 = 0.00301161
  let r1 = 5.0 and r2 = 5.0 and mu1 = 2.73 and mu2 = 2.73
  let k1 = 16.0 and k2 = 16.0 and e = 0.0001
  let tok m i = float_of_int m.(i)

  (* places: mmpp_1 mmpp_2 buf1 Er_token1 Er_stage1 buf2 Er_token2 Er_stage2 *)
  let qlen1 m = tok m 2 +. ((tok m 3 +. tok m 4) /. r1)
  let qlen2 m = tok m 5 +. ((tok m 6 +. tok m 7) /. r1)

  let earrival m =
    let v = if tok m 1 <> 0.0 then lambda21 else lambda22 in
    if tok m 3 = 1.0 then v +. (r1 /. mu1) else v

  let elr m = if qlen2 m +. e >= k2 then earrival m else 0.0
  let pfull m = if qlen2 m +. e >= k2 then 1.0 else 0.0
  let card v _ = int_of_float (Float.round v)
  let dep12 m = if k2 -. qlen2 m +. e < 1.0 then 0 else 1

  let net () =
    let imm name ~ins ~outs ?inh () =
      trans ~kind:Net.Immediate ~priority:20 name (fun _ -> 1.) ~ins ~outs ?inh ()
    in
    Net.build
      ~places:
        [ ("mmpp_1", 1); ("mmpp_2", 1); ("buf1", 0); ("Er_token1", 0);
          ("Er_stage1", 0); ("buf2", 0); ("Er_token2", 0); ("Er_stage2", 0) ]
      ~transitions:
        [ trans "t2_1" (fun _ -> b1) ~ins:[] ~outs:[ (0, one) ] ~inh:[ (0, one) ] ();
          trans "t2_2" (fun _ -> b2) ~ins:[] ~outs:[ (1, one) ] ~inh:[ (1, one) ] ();
          trans "t1_1" (fun _ -> a1) ~ins:[ (0, one) ] ~outs:[] ();
          trans "t1_2" (fun _ -> a2) ~ins:[ (1, one) ] ~outs:[] ();
          trans "tar1"
            (fun m -> if tok m 0 > 0.0 then lambda11 else lambda12)
            ~guard:(fun m -> qlen1 m +. e < k1)
            ~ins:[] ~outs:[ (2, one) ] ();
          trans "Er_trans1" (fun _ -> r1 /. mu1) ~ins:[ (3, one) ] ~outs:[ (4, one) ] ();
          trans "tar2"
            (fun m -> if tok m 1 > 0.0 then lambda21 else lambda22)
            ~guard:(fun m -> qlen2 m +. e < k2)
            ~ins:[] ~outs:[ (5, one) ] ();
          trans "Er_trans2" (fun _ -> r2 /. mu2) ~ins:[ (6, one) ] ~outs:[ (7, one) ] ();
          imm "Er_in1" ~ins:[ (2, one) ] ~outs:[ (3, card r1) ]
            ~inh:[ (3, one); (4, one) ] ();
          imm "Er_out1" ~ins:[ (4, card r1) ] ~outs:[ (5, dep12) ] ();
          imm "Er_in2" ~ins:[ (5, one) ] ~outs:[ (6, card r2) ]
            ~inh:[ (6, one); (7, one) ] ();
          imm "Er_out2" ~ins:[ (7, card r2) ] ~outs:[] () ]

  let rewards =
    [ ("Qlen1", qlen1); ("Qlen2", qlen2); ("ELR", elr); ("PFull", pfull);
      ("Earrival", earrival) ]

  let times = List.init 20 (fun i -> float_of_int (10 * (i + 1)))
end

(* ---- the traced run ---------------------------------------------------- *)

let session_eval s src =
  let out, outcome = Session.eval s src in
  check "session statements" (outcome.Sharpe_lang.Interp.failed_statements = 0);
  out

let record_participation () =
  let part = Pool.participation () in
  seti "pool.batches" part.Pool.batches;
  seti "pool.serial_batches" part.Pool.serial_batches;
  seti "pool.distinct_domains" part.Pool.distinct_domains;
  seti "pool.max_batch_domains" part.Pool.max_batch_domains

(* parse, define, the in-process run and the warm re-issue of its query
   statements; returns (printed output, seconds of define + run) *)
let interp_layers ~define ~query =
  let reps = 20 in
  span "parser.parse_s" (fun () ->
      for _ = 1 to reps do ignore (Parser.parse_string (define ^ query)) done);
  let s = Session.create () in
  Structhash.reset_stats ();
  Pool.reset_participation ();
  let t0 = now () in
  let d_out = span "interp.define_s" (fun () -> session_eval s define) in
  let q_out = span "session.eval_s" (fun () -> session_eval s query) in
  let run_s = now () -. t0 in
  record_participation ();
  List.iter
    (fun st ->
      if st.Structhash.name = "srn_skeleton" || st.Structhash.name = "srn_instance"
      then begin
        seti ("solve_cache." ^ st.Structhash.name ^ ".hits") st.Structhash.hits;
        seti ("solve_cache." ^ st.Structhash.name ^ ".misses") st.Structhash.misses
      end)
    (Structhash.stats ());
  let again = span "eval.reward_s" (fun () -> session_eval s query) in
  check "warm re-issue prints the same" (again = q_out);
  seti "eval.reward_calls"
    (List.length (String.split_on_char '\n' again) - 1);
  (s, d_out ^ q_out, run_s, reps)

let query_value s expr =
  match Session.query s expr with
  | Ok v -> v
  | Error e -> failwith ("query " ^ expr ^ ": " ^ e)

(* JSON codec cost per KB over real lines of this workload *)
let json_layers lines =
  let bytes = List.fold_left (fun a l -> a + String.length l) 0 lines in
  let kb = float_of_int (max 1 bytes) /. 1024.0 in
  let reps = max 1 (200_000 / max 1 bytes) in
  let parsed =
    span "json.decode_us_per_kb" (fun () ->
        let last = ref [] in
        for _ = 1 to reps do
          last := List.map (fun l -> Result.get_ok (Json.parse l)) lines
        done;
        !last)
  in
  span "json.encode_us_per_kb" (fun () ->
      for _ = 1 to reps do List.iter (fun j -> ignore (Json.to_string j)) parsed done);
  float_of_int reps *. kb

let srn_workload spec ~net ~reweights ~times ~rewards ~query_of =
  let s, output, run_s, parse_reps =
    interp_layers ~define:(str "define" spec) ~query:(str "query" spec)
  in
  check "in-process output equals the CLI's" (output = str "cli_output" spec);
  let solved, q = srn_layers ~net ~reweights ~times in
  (* the replica must be the CLI's model: same rewards at every time *)
  List.iter
    (fun (name, r) ->
      List.iter
        (fun (t, v) ->
          let cli = query_value s (query_of t name) in
          check (Printf.sprintf "replica %s(t=%g) %.12g vs %.12g" name t v cli)
            (rel_close v cli))
        (Srn.exrt_many solved r times))
    rewards;
  (s, solved, q, run_s, parse_reps)

let pepa_body spec =
  (* the lines between "pepa big" and its "end" *)
  let lines = String.split_on_char '\n' (str "define" spec) in
  let rec after = function
    | l :: rest when String.trim l = "pepa big" -> rest
    | _ :: rest -> after rest
    | [] -> []
  in
  let rec upto = function
    | l :: _ when String.trim l = "end" -> []
    | l :: rest -> l :: upto rest
    | [] -> []
  in
  String.concat "\n" (upto (after lines)) ^ "\n"

(* What a workload's traced run hands back for the shared layer probes. *)
type run = {
  run_s : float;  (** traced time to set against the untraced median *)
  parse_reps : int;
  generator : Sparse.t;  (** for the SpMV probe *)
  json_lines : string list;  (** for the JSON codec probe *)
}

let trace_atm spec =
  let net = Atm.net () in
  let s, solved, q, run_s, parse_reps =
    srn_workload spec ~net ~reweights:[ net ] ~times:Atm.times ~rewards:Atm.rewards
      ~query_of:(Printf.sprintf "srn_exrt(%g, example6; %s)")
  in
  let cc = field "count_check" spec in
  let n = int_of_float (num "tangible" cc) and replica = Reach.n_tangible (Srn.graph solved) in
  Printf.printf "atm replica: %d tangible (CLI %d)\n" replica n;
  check "atm tangible count equals the CLI's" (replica = n);
  let exrss = Srn.exrss solved Atm.qlen1 in
  check (Printf.sprintf "atm srn_exrss %.15g vs CLI %.15g" exrss (num "exrss" cc))
    (rel_close exrss (num "exrss" cc));
  check "atm srn_exrss equals Session.query"
    (rel_close exrss (query_value s "srn_exrss(example6; Qlen1)"));
  { run_s; parse_reps; generator = q; json_lines = [ str "diag_json" spec ] }

let trace_sweep spec =
  let n = int_of_float (num "n" spec) and rates = field "rates" spec in
  let step = num "c_step" spec in
  let cs =
    List.init (int_of_float (Float.round (0.2 /. step)) + 1)
      (fun i -> 0.70 +. (float_of_int i *. step))
  in
  let _, _, q, run_s, parse_reps =
    srn_workload spec ~net:(wfs_net ~n ~rates 0.8)
      ~reweights:(List.map (wfs_net ~n ~rates) cs)
      ~times:(floats "times" spec) ~rewards:[ ("avail", wfs_avail) ]
      ~query_of:(fun t _ -> Printf.sprintf "srn_exrt(%g, wfs; avail; 0.8)" t)
  in
  { run_s; parse_reps; generator = q; json_lines = [ str "diag_json" spec ] }

let trace_large spec =
  let _, output, run_s, parse_reps =
    interp_layers ~define:(str "define" spec) ~query:(str "query" spec)
  in
  check "in-process output equals the CLI's" (output = str "cli_output" spec);
  idle_srn_layers ();
  let c =
    span "pepa.derive_s" (fun () ->
        Pepa.compile ~resolve:(fun _ -> None) (Pepa.parse (pepa_body spec)))
  in
  seti "pepa.states" (Pepa.n_states c);
  seti "pepa.nnz" (Sparse.nnz (Pepa.generator c));
  ignore (span "pepa.steady_s" (fun () -> Pepa.steady c));
  let t = List.hd (floats "times" spec) in
  ignore (span "pepa.transient_s" (fun () -> Pepa.transient c t));
  ctmc_transient_layer (Pepa.ctmc c) ~init:(Pepa.init_vector c) t;
  ignore (steady_layer (Pepa.generator c));
  { run_s; parse_reps; generator = Pepa.generator c;
    json_lines = [ str "diag_json" spec ] }

(* replay each recorded daemon session in-process; a query's value must
   equal the daemon's bit for bit.  Returns the seconds of the first
   [round_ops] bind/query entries of session bench0, one round's worth. *)
let replay_sessions spec ~round_ops =
  let round_s = ref 0.0 in
  List.iter
    (fun (name, entries) ->
      let s = Session.create () in
      List.iteri
        (fun i e ->
          let t0 = now () in
          (match list e with
          | [ Json.Str "define"; Json.Str src ] -> ignore (session_eval s src)
          | [ Json.Str "bind"; Json.Str n; Json.Num v ] -> Session.bind s n v
          | [ Json.Str "query"; Json.Str expr; Json.Num v ] ->
              let got = span "eval.reward_s" (fun () -> Session.query s expr) in
              check (Printf.sprintf "%s: %s = %.17g in-process" name expr v) (got = Ok v)
          | _ -> check (name ^ ": malformed session entry") false);
          if name = "bench0" && i > 0 && i <= round_ops then
            round_s := !round_s +. (now () -. t0))
        (list entries))
    (match field "sessions" spec with Json.Obj l -> l | _ -> []);
  !round_s

let trace_daemon spec =
  let define = str "define" spec in
  let examples = List.map (fun j -> Option.get (Json.to_str j)) (list (field "examples" spec)) in
  let parse_reps = 5 in
  span "parser.parse_s" (fun () ->
      for _ = 1 to parse_reps do
        List.iter (fun src -> ignore (Parser.parse_string src)) (define :: examples)
      done);
  ignore (span "interp.define_s" (fun () -> session_eval (Session.create ()) define));
  Structhash.reset_stats ();
  Pool.reset_participation ();
  let t0 = now () in
  span "session.eval_s" (fun () ->
      List.iter (fun src -> ignore (Session.eval (Session.create ()) src)) examples);
  let eval_s = now () -. t0 in
  record_participation ();
  let round_s = replay_sessions spec ~round_ops:(4 * List.length examples) in
  seti "eval.reward_calls"
    (List.length (List.filter (fun sp -> sp.name = "eval.reward_s") !spans));
  let n = int_of_float (num "n" spec) and rates = field "rates" spec in
  let net = wfs_net ~n ~rates 0.8 in
  let _, q = srn_layers ~net ~reweights:[ net ] ~times:[ 1.0; 10.0; 20.0 ] in
  let lines =
    String.split_on_char '\n' (read_file (str "lines" spec)) |> List.filter (( <> ) "")
  in
  { run_s = eval_s +. round_s; parse_reps; generator = q; json_lines = lines }

let trace spec =
  Pool.set_jobs (int_of_float (num "jobs" spec));
  let workload = str "workload" spec in
  let r =
    match workload with
    | "atm" -> trace_atm spec
    | "sweep" -> trace_sweep spec
    | "large" -> trace_large spec
    | "daemon" -> trace_daemon spec
    | w -> failwith ("probe: unknown workload " ^ w)
  in
  let spmv_reps = float_of_int (sparse_layer r.generator) in
  let json_kb = json_layers r.json_lines in
  let pool_calls = float_of_int (pool_layer ()) in
  (* the daemon's server and journal figures come from its own stats *)
  if workload <> "daemon" then begin
    List.iter idle
      [ "server.eval_us"; "server.bind_us"; "server.query_us"; "server.wait_us";
        "journal.replay_s" ];
    List.iter (fun m -> seti m 0) [ "journal.records"; "journal.bytes"; "server.shed" ]
  end;
  if workload <> "large" then begin
    List.iter idle [ "pepa.derive_s"; "pepa.steady_s"; "pepa.transient_s" ];
    List.iter (fun m -> seti m 0) [ "pepa.states"; "pepa.nnz" ]
  end;
  (* self times in each metric's unit: per call, per product, per KB, us *)
  let us = 1e-6 in
  let per =
    [ ("parser.parse_s", float_of_int r.parse_reps); ("sparse.spmv_s", spmv_reps);
      ("sparse.par_spmv_s", spmv_reps); ("json.decode_us_per_kb", json_kb *. us);
      ("json.encode_us_per_kb", json_kb *. us); ("pool.run_overhead_us", pool_calls *. us);
      ("server.eval_us", us); ("server.bind_us", us); ("server.query_us", us);
      ("server.wait_us", us) ]
  in
  let self = self_times () in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []
  |> List.sort compare
  |> List.iter (fun (k, v) ->
         Printf.printf "self %-28s %.6f s\n" k v;
         set k (v /. Option.value ~default:1.0 (List.assoc_opt k per)));
  set "gc.top_heap_words" (float_of_int (Gc.quick_stat ()).Gc.top_heap_words);
  write_spans (str "spans" spec);
  r.run_s

(* ---- checks ------------------------------------------------------------ *)

let check_large spec =
  let c = Pepa.compile ~resolve:(fun _ -> None) (Pepa.parse (pepa_body spec)) in
  let q = Pepa.generator c in
  let pi = Pepa.steady c in
  let r = residual q pi in
  Printf.printf "large: %d states, %d nnz, residual %.3g\n" (Pepa.n_states c)
    (Sparse.nnz q) r;
  check "||pi Q|| / ||Q|| <= 1e-9" (r <= 1e-9);
  let sums_to_one v = Float.abs (Array.fold_left ( +. ) 0.0 v -. 1.0) <= 1e-9 in
  check "steady distribution sums to 1" (sums_to_one pi);
  let times = floats "times" spec in
  let transients = List.map (fun t -> (t, Pepa.transient c t)) times in
  List.iter (fun (t, p) -> check (Printf.sprintf "transient(%g) sums to 1" t) (sums_to_one p)) transients;
  let k = int_of_float (num "server_states" spec) in
  let expected =
    List.init k (fun i -> Pepa.prob c pi (Printf.sprintf "S%d" i))
    @ [ Pepa.throughput c pi "req" ]
    @ List.concat_map
        (fun (_, p) ->
          List.map (fun k -> Pepa.prob c p (Printf.sprintf "S%.0f" k)) (floats "shown" spec))
        transients
  in
  let printed =
    String.split_on_char '\n' (str "output" spec)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           let i = String.rindex l ':' in
           float_of_string (String.trim (String.sub l (i + 1) (String.length l - i - 1))))
  in
  check "large prints one value per query" (List.length printed = List.length expected);
  if List.length printed = List.length expected then
    List.iter2
      (fun p e -> check (Printf.sprintf "printed %.15g vs %.15g" p e) (rel_close p e))
      printed expected;
  0.0

let check_daemon spec = replay_sessions spec ~round_ops:0

let () =
  match Sys.argv with
  | [| _; mode; path |] ->
      let spec = spec_of path in
      let run_s =
        match mode with
        | "trace" -> trace spec
        | "check-large" -> check_large spec
        | "check-daemon" -> check_daemon spec
        | m -> failwith ("probe: unknown mode " ^ m)
      in
      let m =
        List.sort compare !metrics |> List.map (fun (k, v) -> (k, Json.Num v))
      in
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("metrics", Json.Obj m);
                ("checks", Json.Num (float_of_int !checks));
                ("failed", Json.Num (float_of_int !failed));
                ("traced_run_s", Json.Num run_s) ]))
  | _ ->
      prerr_endline "usage: probe.exe (trace|check-large|check-daemon) SPEC.json";
      exit 2
