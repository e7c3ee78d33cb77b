(* Synthetic retailer dataset (Figures 2 and 3).

   Schema-faithful stand-in for the paper's US-retailer dataset:

     Inventory(locn, dateid, ksn, inventoryunits)          -- fact, 84M rows
     Items(ksn, subcategory, category, categoryCluster, prize)
     Stores(locn, zip, rgn_cd, clim_zn, + 11 area/distance measures)
     Demographics(zip, + 15 population measures)
     Weather(locn, dateid, rain, snow, thunder, maxtemp, mintemp, meanwind)

   The join is a key-fkey snowflake: Inventory joins Items on ksn, Stores on
   locn, Weather on (locn, dateid); Demographics joins Stores on zip. The
   response (inventoryunits) is generated as a noisy linear function of item
   price, store area, demographics and weather, so a regression model has
   genuine signal to find. Cardinalities scale with [scale]; [scale = 1.0]
   approximates the paper's relative proportions at 1/1000 of its absolute
   size (so the default benchmarks finish in seconds). *)

open Relational
open Gen_util

let name = "retailer"

type sizes = {
  n_locn : int;
  n_zip : int;
  n_dates : int;
  n_items : int;
  n_inventory : int;
}

let sizes ?(scale = 1.0) () =
  {
    n_locn = scaled 130 scale;
    n_zip = scaled 120 scale;
    n_dates = scaled 90 scale;
    n_items = scaled 560 scale;
    n_inventory = scaled ~floor:20 84_000 scale;
  }

let generate ?(scale = 1.0) ~seed () =
  let s = sizes ~scale () in
  let rng = Util.Prng.create seed in
  let zip_of_locn = Array.init s.n_locn (fun _ -> Util.Prng.int rng s.n_zip) in
  let items =
    build "Items"
      [
        ("ksn", Value.TInt);
        ("subcategory", Value.TInt);
        ("category", Value.TInt);
        ("categoryCluster", Value.TInt);
        ("prize", Value.TFloat);
      ]
      s.n_items
      (fun ksn ->
        let category = Util.Prng.int rng 20 in
        [|
          int ksn;
          int ((category * 5) + Util.Prng.int rng 5);
          int category;
          int (category mod 6);
          flt (Util.Prng.float_range rng 0.5 80.0);
        |])
  in
  let stores =
    build "Stores"
      ([ ("locn", Value.TInt); ("zip", Value.TInt); ("rgn_cd", Value.TInt); ("clim_zn", Value.TInt) ]
      @ List.map
          (fun n -> (n, Value.TFloat))
          [
            "tot_area_sq_ft"; "sell_area_sq_ft"; "avghhi";
            "supertargetdistance"; "supertargetdrivetime";
            "targetdistance"; "targetdrivetime";
            "walmartdistance"; "walmartdrivetime";
            "walmartsupercenterdistance"; "walmartsupercenterdrivetime";
          ])
      s.n_locn
      (fun locn ->
        let area = Util.Prng.float_range rng 20_000.0 200_000.0 in
        Array.append
          [| int locn; int zip_of_locn.(locn); int (Util.Prng.int rng 8); int (Util.Prng.int rng 5) |]
          [|
            flt area;
            flt (area *. Util.Prng.float_range rng 0.5 0.9);
            flt (Util.Prng.float_range rng 30_000.0 120_000.0);
            flt (Util.Prng.float_range rng 0.5 40.0);
            flt (Util.Prng.float_range rng 1.0 60.0);
            flt (Util.Prng.float_range rng 0.5 40.0);
            flt (Util.Prng.float_range rng 1.0 60.0);
            flt (Util.Prng.float_range rng 0.5 40.0);
            flt (Util.Prng.float_range rng 1.0 60.0);
            flt (Util.Prng.float_range rng 0.5 40.0);
            flt (Util.Prng.float_range rng 1.0 60.0);
          |])
  in
  let demographics =
    build "Demographics"
      (("zip", Value.TInt)
      :: List.map
           (fun n -> (n, Value.TFloat))
           [
             "population"; "white"; "asian"; "pacific"; "black"; "medianage";
             "occupiedhouseunits"; "houseunits"; "families"; "households";
             "husbwife"; "males"; "females"; "householdschildren"; "hispanic";
           ])
      s.n_zip
      (fun zip ->
        let population = Util.Prng.float_range rng 1_000.0 80_000.0 in
        let frac () = population *. Util.Prng.float_range rng 0.05 0.6 in
        [|
          int zip;
          flt population; flt (frac ()); flt (frac ()); flt (frac ());
          flt (frac ()); flt (Util.Prng.float_range rng 20.0 55.0);
          flt (frac ()); flt (frac ()); flt (frac ()); flt (frac ());
          flt (frac ()); flt (frac ()); flt (frac ()); flt (frac ()); flt (frac ());
        |])
  in
  let weather =
    (* one row per (locn, dateid) *)
    build "Weather"
      [
        ("locn", Value.TInt); ("dateid", Value.TInt);
        ("rain", Value.TInt); ("snow", Value.TInt); ("thunder", Value.TInt);
        ("maxtemp", Value.TFloat); ("mintemp", Value.TFloat); ("meanwind", Value.TFloat);
      ]
      (s.n_locn * s.n_dates)
      (fun i ->
        let locn = i / s.n_dates and dateid = i mod s.n_dates in
        let maxt = Util.Prng.float_range rng (-5.0) 38.0 in
        [|
          int locn; int dateid;
          int (if Util.Prng.float rng 1.0 < 0.25 then 1 else 0);
          int (if maxt < 2.0 && Util.Prng.bool rng then 1 else 0);
          int (if Util.Prng.float rng 1.0 < 0.05 then 1 else 0);
          flt maxt;
          flt (maxt -. Util.Prng.float_range rng 2.0 12.0);
          flt (Util.Prng.float_range rng 0.0 25.0);
        |])
  in
  let item_price =
    let c = Relation.column items 4 in
    Array.init s.n_items (fun k -> Column.float_at c k)
  in
  let store_area =
    let c = Relation.column stores 4 in
    Array.init s.n_locn (fun l -> Column.float_at c l)
  in
  let items_zipf = Util.Prng.zipf_sampler ~n:s.n_items ~s:1.05 in
  let inventory =
    build "Inventory"
      [
        ("locn", Value.TInt); ("dateid", Value.TInt); ("ksn", Value.TInt);
        ("inventoryunits", Value.TFloat);
      ]
      s.n_inventory
      (fun _ ->
        let locn = Util.Prng.int rng s.n_locn in
        let dateid = Util.Prng.int rng s.n_dates in
        let ksn = Util.Prng.zipf rng items_zipf - 1 in
        (* the signal: cheaper items and bigger stores carry more stock *)
        let units =
          clamp 0.0 5_000.0
            ((120.0 -. item_price.(ksn))
            +. (store_area.(locn) /. 2_000.0)
            +. Util.Prng.gaussian rng ~mu:0.0 ~sigma:15.0)
        in
        [| int locn; int dateid; int ksn; flt units |])
  in
  Database.create name [ inventory; items; stores; demographics; weather ]

(* Canonical feature map: join keys are excluded; binary weather flags and
   item taxonomy are categorical; everything else is continuous. *)
let features =
  Aggregates.Feature.make ~response:"inventoryunits" ~thresholds_per_feature:30
    ~continuous:
      [
        "prize";
        "tot_area_sq_ft"; "sell_area_sq_ft"; "avghhi";
        "supertargetdistance"; "supertargetdrivetime";
        "targetdistance"; "targetdrivetime";
        "walmartdistance"; "walmartdrivetime";
        "walmartsupercenterdistance"; "walmartsupercenterdrivetime";
        "population"; "white"; "asian"; "pacific"; "black"; "medianage";
        "occupiedhouseunits"; "houseunits"; "families"; "households";
        "husbwife"; "males"; "females"; "householdschildren"; "hispanic";
        "maxtemp"; "mintemp"; "meanwind";
      ]
    ~categorical:
      [ "subcategory"; "category"; "categoryCluster"; "rgn_cd"; "clim_zn";
        "rain"; "snow"; "thunder" ]
    ()

(* Categorical attributes used by the mutual-information workload (includes
   the join dimensions, as the paper's Chow-Liu task does). *)
let mi_attrs =
  [ "subcategory"; "category"; "categoryCluster"; "rgn_cd"; "clim_zn";
    "rain"; "snow"; "thunder"; "locn"; "dateid" ]

(* Numeric features for the IVM experiment (kept moderate so the per-update
   ring operations match the paper's setting without dominating runtime). *)
let ivm_features =
  [ "inventoryunits"; "prize"; "tot_area_sq_ft"; "avghhi"; "population";
    "medianage"; "maxtemp"; "mintemp"; "meanwind"; "households" ]
