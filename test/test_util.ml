(* Tests for the util substrate: PRNG, vectors/matrices (Cholesky), CSV,
   CRC-32 checksums, and the domain pool. *)

open Util

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_range () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int_range rng 3 9 in
    Alcotest.(check bool) "in range" true (x >= 3 && x <= 9)
  done

let test_prng_split_independent () =
  let a = Prng.create 1 in
  let b = Prng.split a in
  let xs = List.init 10 (fun _ -> Prng.int a 1000) in
  let ys = List.init 10 (fun _ -> Prng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* Known answers: the streams must not change, since every dataset is
   generated from them. Floats are compared by their hex images. *)
let test_prng_known_answers () =
  let draws k f = List.init k (fun _ -> f ()) in
  let hex = List.map (Printf.sprintf "%h") in
  let zipf = Prng.zipf_sampler ~n:2240 ~s:1.05 in
  let r = Prng.create 42 in
  Alcotest.(check (list int)) "bits"
    [ 3419864383188818853; 737456523031723072; 1284820937115690964; 1587299515064563941 ]
    (draws 4 (fun () -> Prng.bits r));
  let r = Prng.create 42 in
  Alcotest.(check (list string)) "float"
    [ "0x1.7bae644c5fd6ep-1"; "0x1.477f199d93378p-3"; "0x1.1d499d5c4c3e8p-2"; "0x1.607387fc392b9p-2" ]
    (hex (draws 4 (fun () -> Prng.float r 1.0)));
  let r = Prng.create 42 in
  Alcotest.(check (list string)) "gaussian"
    [ "0x1.2a2b12d51bd42p+1"; "-0x1.22953d3a46ap-2"; "0x1.3d634e6a0a15ep+2"; "0x1.4badc7e96f464p+1" ]
    (hex (draws 4 (fun () -> Prng.gaussian r ~mu:1.5 ~sigma:2.0)));
  let r = Prng.create 42 in
  Alcotest.(check (list int)) "zipf ~n:2240 ~s:1.05" [ 2; 2; 2; 2; 2; 2; 25; 4 ]
    (draws 8 (fun () -> Prng.zipf r zipf));
  (* one stream after [split]: bits, then floats, gaussians and ranks *)
  let r = Prng.create 42 in
  let s = Prng.split r in
  Alcotest.(check (list int)) "bits after split"
    [ 4418786343556581925; 1166897920761108503; 3279809799458010469 ]
    (draws 3 (fun () -> Prng.bits s));
  Alcotest.(check (list string)) "float after split"
    [ "0x1.ecc1a4c89f8b2p-1"; "0x1.e4bc06888bbbap-2" ]
    (hex (draws 2 (fun () -> Prng.float s 1.0)));
  Alcotest.(check (list string)) "gaussian after split"
    [ "-0x1.5445fa9f45b7ap-3"; "-0x1.1e4be123c135ep+0" ]
    (hex (draws 2 (fun () -> Prng.gaussian s ~mu:0.0 ~sigma:1.0)));
  Alcotest.(check (list int)) "zipf after split" [ 2; 3; 2; 2 ] (draws 4 (fun () -> Prng.zipf s zipf));
  Alcotest.(check int) "the parent after split" 737456523031723072 (Prng.bits r)

(* The state is unboxed, so a draw allocates nothing but the float it
   returns: two words for [float] and for [gaussian] (a call from another
   module boxes its result), none for [bits]. *)
let test_prng_allocates_nothing () =
  let r = Prng.create 5 in
  let acc = ref 0 and sum = ref 0.0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    acc := !acc lxor Prng.bits r;
    sum := !sum +. Prng.float r 1.0 +. Prng.gaussian r ~mu:0.0 ~sigma:1.0
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity (!acc, !sum));
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words for 3,000 draws" words) true
    (words <= 4_000.0)

let test_zipf_bounds () =
  let rng = Prng.create 3 and z = Prng.zipf_sampler ~n:50 ~s:1.2 in
  for _ = 1 to 500 do
    let r = Prng.zipf rng z in
    Alcotest.(check bool) "rank bounds" true (r >= 1 && r <= 50)
  done

let test_backoff_deterministic_and_bounded () =
  (* same seed, same delay sequence — bit-exact *)
  let a = Prng.create 11 and b = Prng.create 11 in
  for k = 0 to 20 do
    let da = Prng.backoff a ~base:0.001 ~cap:0.25 ~attempt:k in
    let db = Prng.backoff b ~base:0.001 ~cap:0.25 ~attempt:k in
    Alcotest.(check bool) "deterministic under seed" true
      (Int64.bits_of_float da = Int64.bits_of_float db)
  done;
  (* every draw respects 0 <= d < min cap (base * 2^k), even for attempts
     past the overflow-clamp point *)
  let rng = Prng.create 12 in
  List.iter
    (fun k ->
      for _ = 1 to 200 do
        let d = Prng.backoff rng ~base:0.001 ~cap:0.25 ~attempt:k in
        let ceiling = Float.min 0.25 (0.001 *. (2.0 ** float_of_int k)) in
        Alcotest.(check bool)
          (Printf.sprintf "attempt %d in [0, %g)" k ceiling)
          true
          (d >= 0.0 && d < ceiling)
      done)
    [ 0; 1; 3; 7; 30; 100; max_int ];
  (* different seeds decorrelate: the jitter sequences must differ *)
  let x = Prng.create 1 and y = Prng.create 2 in
  let seq p = List.init 8 (fun k -> Prng.backoff p ~base:0.001 ~cap:0.25 ~attempt:k) in
  Alcotest.(check bool) "seeds decorrelate" true (seq x <> seq y);
  (* degenerate inputs *)
  Alcotest.(check (float 0.0)) "zero base gives zero delay" 0.0
    (Prng.backoff rng ~base:0.0 ~cap:1.0 ~attempt:5);
  Alcotest.check_raises "negative base rejected"
    (Invalid_argument "Prng.backoff: negative base or cap") (fun () ->
      ignore (Prng.backoff rng ~base:(-1.0) ~cap:1.0 ~attempt:0))

let test_gaussian_moments () =
  let rng = Prng.create 5 in
  let n = 20000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.gaussian rng ~mu:2.0 ~sigma:3.0 in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 2" true (Float.abs (mean -. 2.0) < 0.15);
  Alcotest.(check bool) "var near 9" true (Float.abs (var -. 9.0) < 0.8)

(* --- vectors --- *)

let test_vec_ops () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  Alcotest.(check (float 1e-12)) "dot" 32.0 (Vec.dot a b);
  Alcotest.(check bool) "add" true (Vec.equal (Vec.add a b) [| 5.0; 7.0; 9.0 |]);
  Alcotest.(check bool) "scale" true (Vec.equal (Vec.scale 2.0 a) [| 2.0; 4.0; 6.0 |]);
  let y = Vec.copy b in
  Vec.axpy ~alpha:2.0 a y;
  Alcotest.(check bool) "axpy" true (Vec.equal y [| 6.0; 9.0; 12.0 |])

(* --- matrices --- *)

let random_spd rng n =
  (* A = B^T B + n * I is SPD *)
  let b = Mat.init n n (fun _ _ -> Prng.float_range rng (-1.0) 1.0) in
  Mat.add (Mat.matmul (Mat.transpose b) b) (Mat.scale (float_of_int n) (Mat.identity n))

let cholesky_prop =
  QCheck2.Test.make ~count:50 ~name:"solve_spd solves random SPD systems"
    QCheck2.Gen.(pair (int_range 1 8) int)
    (fun (n, seed) ->
      let rng = Prng.create seed in
      let a = random_spd rng n in
      let x_true = Array.init n (fun _ -> Prng.float_range rng (-5.0) 5.0) in
      let b = Mat.matvec a x_true in
      let x = Mat.solve_spd a b in
      Vec.equal ~eps:1e-6 x x_true)

let test_cholesky_rejects_non_pd () =
  let m = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "not PD" Mat.Not_positive_definite (fun () ->
      ignore (Mat.cholesky m))

let test_matmul_identity () =
  let rng = Prng.create 11 in
  let a = Mat.init 4 4 (fun _ _ -> Prng.float_range rng (-1.0) 1.0) in
  Alcotest.(check bool) "A*I = A" true (Mat.equal (Mat.matmul a (Mat.identity 4)) a);
  Alcotest.(check bool) "I*A = A" true (Mat.equal (Mat.matmul (Mat.identity 4) a) a)

let test_ger () =
  let m = Mat.create 2 2 in
  Mat.ger ~alpha:2.0 [| 1.0; 2.0 |] [| 3.0; 4.0 |] m;
  Alcotest.(check (float 1e-12)) "m00" 6.0 (Mat.get m 0 0);
  Alcotest.(check (float 1e-12)) "m01" 8.0 (Mat.get m 0 1);
  Alcotest.(check (float 1e-12)) "m10" 12.0 (Mat.get m 1 0);
  Alcotest.(check (float 1e-12)) "m11" 16.0 (Mat.get m 1 1)

let test_power_iteration () =
  (* diag(5, 2, 1): dominant eigenvalue 5 with e_0 *)
  let m = Mat.init 3 3 (fun i j -> if i = j then [| 5.0; 2.0; 1.0 |].(i) else 0.0) in
  let lambda, v = Mat.power_iteration m [| 1.0; 1.0; 1.0 |] in
  Alcotest.(check (float 1e-6)) "lambda" 5.0 lambda;
  Alcotest.(check (float 1e-4)) "v aligned with e0" 1.0 (Float.abs v.(0))

(* --- CSV --- *)

let test_csv_roundtrip () =
  let rows = [ [ "a"; "b"; "c" ]; [ "1"; "2.5"; "xyz" ] ] in
  Alcotest.(check bool)
    "roundtrip" true
    (Csvio.parse_string (Csvio.to_string rows) = rows)

let csv_prop =
  QCheck2.Test.make ~count:100 ~name:"csv roundtrip on random cells"
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (list_size (int_range 1 5) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))))
    (fun rows -> Csvio.parse_string (Csvio.to_string rows) = rows)

(* Malformed CSV reports its source position: 1-based line (physical, so
   skipped blank lines still count) and 1-based column. *)

let check_malformed name ~line ~column f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Csvio.Malformed" name
  | exception Csvio.Malformed m ->
      Alcotest.(check int) (name ^ ": line") line m.line;
      Alcotest.(check int) (name ^ ": column") column m.column

let test_csv_located_lines () =
  let text = "a,b\n\n1,2\n\n\n3,4\n" in
  Alcotest.(check (list (pair int (list string))))
    "blank lines counted but skipped"
    [ (1, [ "a"; "b" ]); (3, [ "1"; "2" ]); (6, [ "3"; "4" ]) ]
    (Csvio.parse_string_located text)

let test_csv_malformed_arity () =
  let schema = Relational.Schema.make [ ("x", Relational.Value.TInt); ("y", Relational.Value.TFloat) ] in
  (* row 2 of the data (line 3 under a header) has three cells *)
  check_malformed "wrong arity" ~line:3 ~column:3 (fun () ->
      Relational.Relation.of_csv_rows ~first_line:2 "r" schema
        [ [ "1"; "2.0" ]; [ "3"; "4.0"; "oops" ] ]);
  (* located variant: the reported line survives interleaved blanks *)
  let rows = Csvio.parse_string_located "1,2.0\n\n\n3,4.0,oops\n" in
  check_malformed "wrong arity (located)" ~line:4 ~column:3 (fun () ->
      Relational.Relation.of_csv_rows_located "r" schema rows)

let test_csv_malformed_cell () =
  let schema = Relational.Schema.make [ ("x", Relational.Value.TInt); ("y", Relational.Value.TFloat) ] in
  check_malformed "non-numeric cell" ~line:2 ~column:2 (fun () ->
      Relational.Relation.of_csv_rows "r" schema
        [ [ "1"; "2.0" ]; [ "3"; "not-a-number" ] ]);
  check_malformed "int cell" ~line:1 ~column:1 (fun () ->
      Relational.Relation.of_csv_rows "r" schema [ [ "1.5"; "2.0" ] ]);
  (* the message is human-readable and carries the position *)
  (match
     Relational.Relation.of_csv_rows "r" schema [ [ "x"; "0" ] ]
   with
  | _ -> Alcotest.fail "expected Malformed"
  | exception Csvio.Malformed m ->
      Alcotest.(check bool) "reason mentions the cell" true
        (String.length m.reason > 0))

(* --- checksum --- *)

(* The standard CRC-32 check values, and the sub-range entry points agree
   with hashing the extracted substring. *)
let test_crc32_vectors () =
  Alcotest.(check int) "empty" 0 (Checksum.crc32 "");
  Alcotest.(check int) "check value" 0xCBF43926 (Checksum.crc32 "123456789");
  Alcotest.(check int) "pangram" 0x414FA339
    (Checksum.crc32 "The quick brown fox jumps over the lazy dog");
  let s = "xx123456789yy" in
  Alcotest.(check int) "sub range" 0xCBF43926
    (Checksum.crc32_sub s ~pos:2 ~len:9);
  Alcotest.(check int) "bytes range" 0xCBF43926
    (Checksum.crc32_bytes (Bytes.of_string s) ~pos:2 ~len:9);
  List.iter
    (fun (pos, len) ->
      match Checksum.crc32_sub s ~pos ~len with
      | _ -> Alcotest.failf "pos %d len %d accepted" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 2); (0, -1); (10, 4) ]

(* The bytewise table algorithm, kept here as the reference the sliced
   C implementation must reproduce. *)
let crc32_bytewise s ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* Random strings and sub-ranges, short (0-64 bytes: every tail length
   and alignment) and long: the sliced CRC equals the bytewise one. *)
let crc32_matches_bytewise =
  QCheck2.Test.make ~count:300 ~name:"crc32_sub = bytewise reference"
    QCheck2.Gen.(
      let* long = bool in
      let* s = string_size (if long then int_range 64 3000 else int_range 0 80) in
      let n = String.length s in
      let* pos = int_range 0 n in
      let* len = int_range 0 (if long then n - pos else Stdlib.min 64 (n - pos)) in
      return (s, pos, len))
    (fun (s, pos, len) -> Checksum.crc32_sub s ~pos ~len = crc32_bytewise s ~pos ~len)

(* Every start alignment (0-31) against every length up to 100 bytes, and
   long unaligned ranges: the C loop's 16-byte steps and byte tail equal
   the bytewise reference at each combination. *)
let test_crc32_alignments () =
  let s = String.init 4200 (fun i -> Char.chr ((i * 131) lxor (i lsr 3) land 0xFF)) in
  for pos = 0 to 31 do
    for len = 0 to 100 do
      if Checksum.crc32_sub s ~pos ~len <> crc32_bytewise s ~pos ~len then
        Alcotest.failf "pos %d len %d" pos len
    done;
    let len = String.length s - pos - (pos * 7) in
    if Checksum.crc32_sub s ~pos ~len <> crc32_bytewise s ~pos ~len then
      Alcotest.failf "pos %d len %d" pos len
  done

(* Checksums taken from several domains at once, as concurrent serving
   clients do, all agree with the sequential value. *)
let test_crc32_concurrent () =
  let inputs = List.init 4 (fun i -> String.make (1000 + i) (Char.chr (65 + i))) in
  let expected = List.map Checksum.crc32 inputs in
  let workers =
    List.map (fun s -> Domain.spawn (fun () -> Checksum.crc32 s)) inputs
  in
  Alcotest.(check (list int)) "same as sequential" expected
    (List.map Domain.join workers)

(* --- pool --- *)

let test_ranges_cover () =
  List.iter
    (fun (n, k) ->
      let rs = Pool.ranges n k in
      let total = List.fold_left (fun acc (_, len) -> acc + len) 0 rs in
      Alcotest.(check int) (Printf.sprintf "cover %d/%d" n k) n total)
    [ (10, 3); (0, 4); (7, 10); (100, 8) ]

let test_parallel_sum () =
  let n = 10000 in
  let seq = n * (n - 1) / 2 in
  let par =
    Pool.parallel_chunks n
      (fun lo len ->
        let s = ref 0 in
        for i = lo to lo + len - 1 do
          s := !s + i
        done;
        !s)
      ~combine:( + ) ~zero:0
  in
  Alcotest.(check int) "parallel sum" seq par

let test_parallel_tasks_order () =
  let results = Pool.parallel_tasks (List.init 20 (fun i () -> i * i)) in
  Alcotest.(check (list int)) "ordered" (List.init 20 (fun i -> i * i)) results

(* For a FIXED chunk count, the result may not depend on how many domains
   execute the chunks — even when [combine] is non-commutative and float
   rounding makes every association distinct. Covers the n < chunks edge
   (each chunk one element) via small n. *)
let parallel_chunks_domain_invariance =
  QCheck2.Test.make ~count:60
    ~name:"parallel_chunks: result independent of domain count"
    QCheck2.Gen.(triple (int_range 0 50) (int_range 1 10) int)
    (fun (n, chunks, seed) ->
      let rng = Util.Prng.create seed in
      let xs = Array.init (max n 1) (fun _ -> Util.Prng.float rng 1.0) in
      let run domains =
        Pool.parallel_chunks ~domains ~chunks n
          (fun lo len ->
            let s = ref 0.0 in
            for i = lo to lo + len - 1 do
              s := !s +. xs.(i)
            done;
            !s)
          (* non-commutative, non-associative combine: any reordering of the
             fold shows up in the bits *)
          ~combine:(fun acc x -> (acc *. 0.5) +. x)
          ~zero:1.0
      in
      let reference = Int64.bits_of_float (run 1) in
      List.for_all
        (fun domains -> Int64.bits_of_float (run domains) = reference)
        [ 2; 3; 4; 8 ])

(* domains=1 must not spawn: every chunk runs on the calling domain. *)
let test_parallel_chunks_no_spawn () =
  let self = Domain.self () in
  let ids =
    Pool.parallel_chunks ~domains:1 ~chunks:8 100
      (fun _ _ -> [ Domain.self () ])
      ~combine:( @ ) ~zero:[]
  in
  Alcotest.(check int) "8 chunks ran" 8 (List.length ids);
  Alcotest.(check bool) "all on the calling domain" true
    (List.for_all (fun id -> id = self) ids)

(* n < chunks: ranges must cover [0, n) exactly with n singleton chunks. *)
let test_ranges_fewer_items_than_chunks () =
  let rs = Pool.ranges 3 8 in
  Alcotest.(check int) "clamped to n chunks" 3 (List.length rs);
  Alcotest.(check (list (pair int int))) "singleton cover"
    [ (0, 1); (1, 1); (2, 1) ] rs;
  Alcotest.(check (list (pair int int))) "n=0 empty" [] (Pool.ranges 0 4)

(* BORG_DOMAINS parsing: junk, "0" and negatives must fall back to the
   recommended-count default (capped at 8), never to an arbitrary constant
   or a crash. *)
let test_domains_of_env () =
  let default = Pool.domains_of_env None in
  Alcotest.(check bool) "default positive, capped" true
    (default >= 1 && default <= 8);
  List.iter
    (fun junk ->
      Alcotest.(check int)
        (Printf.sprintf "%S falls back" junk)
        default
        (Pool.domains_of_env (Some junk)))
    [ ""; "banana"; "0"; "-3"; "2.5"; "1e3"; "  "; "0x"; "--4" ];
  Alcotest.(check int) "valid value wins" 4 (Pool.domains_of_env (Some "4"));
  Alcotest.(check int) "whitespace trimmed" 6
    (Pool.domains_of_env (Some " 6 "));
  Alcotest.(check int) "large values not capped" 32
    (Pool.domains_of_env (Some "32"))

(* Budget regression: nested parallel calls share ONE process-global token
   pool, so peak live domains never exceed budget + 1 (the caller) no matter
   how the calls nest. Before the budget each nesting level spawned its own
   full complement. *)
let with_budget k f =
  let saved = Pool.worker_budget () in
  Pool.set_worker_budget k;
  Fun.protect ~finally:(fun () -> Pool.set_worker_budget saved) f

let test_nested_budget_no_oversubscription () =
  with_budget 2 @@ fun () ->
  Pool.reset_peak_live_domains ();
  (* 4 outer tasks each wanting 4 domains, each running an inner
     parallel_chunks also wanting 4: without a shared budget this asks for
     dozens of domains at once. *)
  let outer =
    Pool.parallel_tasks ~domains:4
      (List.init 4 (fun i () ->
           Pool.parallel_chunks ~domains:4 100
             (fun lo len ->
               let s = ref 0 in
               for j = lo to lo + len - 1 do
                 s := !s + j + i
               done;
               !s)
             ~combine:( + ) ~zero:0))
  in
  let expect i = (100 * 99 / 2) + (100 * i) in
  Alcotest.(check (list int)) "nested results exact"
    [ expect 0; expect 1; expect 2; expect 3 ]
    outer;
  Alcotest.(check bool)
    (Printf.sprintf "peak %d <= budget 2 + 1" (Pool.peak_live_domains ()))
    true
    (Pool.peak_live_domains () <= 3);
  Alcotest.(check int) "all workers joined" 1 (Pool.live_domains ());
  (* Tokens must be back in the pool: a fresh parallel call can spawn the
     full complement again (peak accounting moves before the spawn, so this
     is deterministic). *)
  Pool.reset_peak_live_domains ();
  ignore
    (Pool.parallel_tasks ~domains:3
       (List.init 3 (fun i () -> i * i)));
  Alcotest.(check int) "tokens released back to the pool" 3
    (Pool.peak_live_domains ())

(* Zero budget: everything runs inline on the calling domain, results are
   still exact, and nothing is ever spawned. *)
let test_zero_budget_runs_inline () =
  with_budget 0 @@ fun () ->
  Pool.reset_peak_live_domains ();
  let r =
    Pool.parallel_chunks ~domains:8 1000
      (fun lo len ->
        let s = ref 0 in
        for i = lo to lo + len - 1 do
          s := !s + i
        done;
        !s)
      ~combine:( + ) ~zero:0
  in
  Alcotest.(check int) "sum exact" (1000 * 999 / 2) r;
  Alcotest.(check int) "no domain ever spawned" 1 (Pool.peak_live_domains ())

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "int_range bounds" `Quick test_prng_range;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "known answers" `Quick test_prng_known_answers;
          Alcotest.test_case "draws allocate only their result" `Quick
            test_prng_allocates_nothing;
          Alcotest.test_case "backoff deterministic and bounded" `Quick
            test_backoff_deterministic_and_bounded;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
        ] );
      ("vec", [ Alcotest.test_case "basic ops" `Quick test_vec_ops ]);
      ( "mat",
        [
          qcheck cholesky_prop;
          Alcotest.test_case "cholesky rejects non-PD" `Quick
            test_cholesky_rejects_non_pd;
          Alcotest.test_case "matmul identity" `Quick test_matmul_identity;
          Alcotest.test_case "ger rank-1 update" `Quick test_ger;
          Alcotest.test_case "power iteration" `Quick test_power_iteration;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          qcheck csv_prop;
          Alcotest.test_case "located physical lines" `Quick
            test_csv_located_lines;
          Alcotest.test_case "malformed: wrong arity" `Quick
            test_csv_malformed_arity;
          Alcotest.test_case "malformed: bad cell" `Quick
            test_csv_malformed_cell;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "crc32 check values" `Quick test_crc32_vectors;
          Alcotest.test_case "crc32 from several domains" `Quick
            test_crc32_concurrent;
          qcheck crc32_matches_bytewise;
          Alcotest.test_case "crc32 at every alignment and tail" `Quick
            test_crc32_alignments;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ranges cover" `Quick test_ranges_cover;
          Alcotest.test_case "parallel sum" `Quick test_parallel_sum;
          Alcotest.test_case "task order" `Quick test_parallel_tasks_order;
          qcheck parallel_chunks_domain_invariance;
          Alcotest.test_case "domains=1 never spawns" `Quick
            test_parallel_chunks_no_spawn;
          Alcotest.test_case "ranges with n < chunks" `Quick
            test_ranges_fewer_items_than_chunks;
          Alcotest.test_case "BORG_DOMAINS parsing fallback" `Quick
            test_domains_of_env;
          Alcotest.test_case "nested calls respect global budget" `Quick
            test_nested_budget_no_oversubscription;
          Alcotest.test_case "zero budget runs inline" `Quick
            test_zero_budget_runs_inline;
        ] );
    ]
