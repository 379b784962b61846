package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.ann.{AnnConfig, MutualTopK}
import repro.embed.VecOps
import repro.graph.ConnectedComponents

/** Merging-phase configuration (paper §III-C).
  *
  * @param k   mutual top-K width (paper uses k = 1)
  * @param m   distance threshold in Eq. (1)
  * @param ann ANN backend configuration (signature blocking or exact)
  */
case class MergeConfig(
    k: Int = 1,
    m: Double = 0.4,
    ann: AnnConfig = AnnConfig(exact = true),
)

/** Table-wise hierarchical merging (Algorithms 2 and 3).
  *
  * A *table of items* is a DataFrame (id: Long, members: Array[Long],
  * vec: Array[Double], keys: Array[Long]) where `id` is always the minimum
  * member eid, `vec` the L2-renormalised centroid of the members' entity
  * embeddings, and `keys` the union of the members' blocking keys (capped).
  * The initial tables hold one item per entity; every hierarchy level merges
  * table pairs until one table remains.
  */
object Merging {

  /** Cap on a merged item's blocking-key count. */
  val MaxKeys = 16

  /** Lift per-entity embeddings (eid, vec[, keys]) into single-member items;
    * a missing `keys` column becomes an empty array (fine for exact mode).
    */
  def initItems(emb: DataFrame): DataFrame = {
    val withKeys =
      if (emb.columns.contains("keys")) emb
      else emb.withColumn("keys", array().cast("array<long>"))
    withKeys.select(col("eid") as "id", array(col("eid")) as "members", col("vec"), col("keys"))
  }

  /** Algorithm 3 for every table pair of one hierarchy level in a single
    * dataflow. `items` carries a `table` column; table t is paired with
    * table t xor 1, and the pair becomes table t / 2 of the next level (a
    * last, unpaired table passes through as its own pair).
    *
    * Mutual top-K pairs (Eq. 1) become edges; connected components merge
    * matched items by transitivity (members unioned, centroid recomputed);
    * unmatched items pass through untouched into the merged table.
    */
  private def mergeLevel(items: DataFrame, cfg: MergeConfig): DataFrame = {
    val tagged = items.withColumn("group", shiftright(col("table"), 1))
    def side(s: Int, id: String): DataFrame =
      tagged.filter(col("table") % 2 === s)
        .select(col("group"), col("group") as "block", col("id") as id, col("vec"), col("keys"))
    val pairs = MutualTopK.grouped(side(0, "lid"), side(1, "rid"), cfg.k, cfg.m, cfg.ann)
    val edges = pairs.select(col("lid") as "src", col("rid") as "dst")
    // k = 1 fast path: mutual top-1 pairs form a one-to-one matching (each
    // item is ranked first by at most one partner per direction), so every
    // component is a single edge — label it min(src, dst) directly instead
    // of running the iterative CC loop.
    val ends = explode(array(col("src"), col("dst"))) as "id"
    val comp =
      if (cfg.k == 1) edges.select(ends, least(col("src"), col("dst")) as "component")
      else ConnectedComponents.run(edges.select(ends).distinct().localCheckpoint(), edges.localCheckpoint())
    val labelled = tagged.join(comp, Seq("id"), "left")
    // Members are gathered in item-id order, so neither the centroid's
    // floating-point sum nor the keys kept under the cap depend on the row
    // order a shuffle delivers.
    val merged = labelled.filter(col("component").isNotNull)
      .groupBy("group", "component")
      .agg(sort_array(collect_list(struct(col("id"), col("members"), col("vec"), col("keys")))) as "m")
      // component label is the min item id = min member eid, preserving the
      // id invariant for subsequent levels.
      .select(
        col("group") as "table",
        col("component") as "id",
        sort_array(flatten(col("m.members"))) as "members",
        VecOps.meanNormalizedCol(col("m.vec")) as "vec",
        slice(array_distinct(flatten(col("m.keys"))), 1, MaxKeys) as "keys",
      )
    val unmatched = labelled.filter(col("component").isNull)
      .select(col("group") as "table", col("id"), col("members"), col("vec"), col("keys"))
    unmatched.unionByName(merged)
  }

  /** Algorithm 3: merge two item tables — the one-pair case of a level. */
  def twoTableMerge(a: DataFrame, b: DataFrame, cfg: MergeConfig): DataFrame =
    mergeLevel(a.withColumn("table", lit(0)).unionByName(b.withColumn("table", lit(1))), cfg)
      .select("id", "members", "vec", "keys")

  /** Algorithm 2: binary-tree merge schedule over all tables. A level's pair
    * merges are independent, so each level runs as one dataflow over all of
    * its pairs (MultiEM (parallel), §III-E) and is checkpointed once.
    */
  def hierarchical(tables: Seq[DataFrame], cfg: MergeConfig): DataFrame = {
    require(tables.nonEmpty, "no tables to merge")
    var items = tables.zipWithIndex
      .map { case (t, i) => t.select(lit(i) as "table", col("id"), col("members"), col("vec"), col("keys")) }
      .reduce(_ unionByName _)
    var n = tables.size
    while (n > 1) {
      items = mergeLevel(items, cfg).localCheckpoint()
      n = (n + 1) / 2
    }
    items.select("id", "members", "vec", "keys")
  }
}
