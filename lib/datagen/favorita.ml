(* Synthetic Corporación Favorita dataset (grocery sales forecasting), with
   the public Kaggle schema used by LMFAO's evaluation:

     Sales(date, store, item, unitsales, onpromotion)   -- fact
     Stores(store, city, state, stype, cluster)
     Items(item, family, itemclass, perishable)
     Transactions(date, store, transactions)
     Oil(date, oilprice)
     Holidays(date, holtype, locale, transferred)

   Join tree: Sales joins Items on item, Transactions on (date, store);
   Transactions joins Stores on store and Oil/Holidays on date. *)

open Relational
open Gen_util

let name = "favorita"

type sizes = { n_stores : int; n_items : int; n_dates : int; n_sales : int }

let sizes ?(scale = 1.0) () =
  {
    n_stores = scaled 54 scale;
    n_items = scaled 400 scale;
    n_dates = scaled 120 scale;
    n_sales = scaled ~floor:20 30_000 scale;
  }

let generate ?(scale = 1.0) ~seed () =
  let s = sizes ~scale () in
  let rng = Util.Prng.create seed in
  let stores =
    build "Stores"
      [
        ("store", Value.TInt); ("city", Value.TInt); ("state", Value.TInt);
        ("stype", Value.TInt); ("cluster", Value.TInt);
      ]
      s.n_stores
      (fun store ->
        let state = Util.Prng.int rng 16 in
        [| int store; int ((state * 3) + Util.Prng.int rng 3); int state;
           int (Util.Prng.int rng 5); int (Util.Prng.int rng 17) |])
  in
  let items =
    build "Items"
      [
        ("item", Value.TInt); ("family", Value.TInt);
        ("itemclass", Value.TFloat); ("perishable", Value.TInt);
      ]
      s.n_items
      (fun item ->
        [| int item; int (Util.Prng.int rng 33);
           flt (float_of_int (Util.Prng.int rng 340));
           int (if Util.Prng.float rng 1.0 < 0.25 then 1 else 0) |])
  in
  let transactions =
    build "Transactions"
      [ ("date", Value.TInt); ("store", Value.TInt); ("transactions", Value.TFloat) ]
      (s.n_dates * s.n_stores)
      (fun i ->
        let date = i / s.n_stores and store = i mod s.n_stores in
        [| int date; int store; flt (Util.Prng.float_range rng 200.0 5_000.0) |])
  in
  let oil =
    build "Oil"
      [ ("date", Value.TInt); ("oilprice", Value.TFloat) ]
      s.n_dates
      (fun date -> [| int date; flt (Util.Prng.float_range rng 26.0 110.0) |])
  in
  let holidays =
    build "Holidays"
      [
        ("date", Value.TInt); ("holtype", Value.TInt); ("locale", Value.TInt);
        ("transferred", Value.TInt);
      ]
      s.n_dates
      (fun date ->
        [| int date; int (Util.Prng.int rng 6); int (Util.Prng.int rng 3);
           int (if Util.Prng.float rng 1.0 < 0.1 then 1 else 0) |])
  in
  let perishable =
    let c = Relation.column items 3 in
    Array.init s.n_items (fun i -> Column.int_at c i)
  in
  let items_zipf = Util.Prng.zipf_sampler ~n:s.n_items ~s:1.1 in
  let sales =
    build "Sales"
      [
        ("date", Value.TInt); ("store", Value.TInt); ("item", Value.TInt);
        ("unitsales", Value.TFloat); ("onpromotion", Value.TInt);
      ]
      s.n_sales
      (fun _ ->
        let item = Util.Prng.zipf rng items_zipf - 1 in
        let promo = if Util.Prng.float rng 1.0 < 0.15 then 1 else 0 in
        let units =
          clamp 0.0 500.0
            (8.0
            +. (12.0 *. float_of_int promo)
            +. (4.0 *. float_of_int perishable.(item))
            +. Util.Prng.gaussian rng ~mu:0.0 ~sigma:5.0)
        in
        [| int (Util.Prng.int rng s.n_dates); int (Util.Prng.int rng s.n_stores);
           int item; flt units; int promo |])
  in
  Database.create name [ sales; stores; items; transactions; oil; holidays ]

let features =
  Aggregates.Feature.make ~response:"unitsales" ~thresholds_per_feature:20
    ~continuous:[ "transactions"; "oilprice"; "itemclass" ]
    ~categorical:
      [ "onpromotion"; "stype"; "cluster"; "family"; "perishable";
        "holtype"; "locale"; "transferred" ]
    ()

let mi_attrs =
  [ "onpromotion"; "stype"; "cluster"; "family"; "perishable"; "holtype";
    "locale"; "transferred"; "city"; "state"; "store"; "item"; "date" ]

let ivm_features = [ "unitsales"; "transactions"; "oilprice"; "itemclass" ]
