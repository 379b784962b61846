package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestUtil}
import repro.TestUtil.{planar, vecDf}
import repro.ann.AnnConfig

class MergingSpec extends SparkSpec {

  private def items(rows: Seq[(Long, Array[Double])]): DataFrame =
    Merging.initItems(vecDf(spark, rows).withColumnRenamed("id", "eid"))

  private def memberSets(df: DataFrame): Set[Set[Long]] = TestUtil.tupleSet(df)

  private val cfg = MergeConfig(k = 1, m = 0.3, ann = AnnConfig(exact = true))

  test("initItems wraps each entity as a singleton item with id = eid") {
    val it = items(Seq(7L -> planar(0.0))).collect()(0)
    assert(it.getLong(0) == 7L)
    assert(it.getSeq[Long](1) == Seq(7L))
  }

  test("twoTableMerge merges mutual nearest pairs into one item") {
    val a = items(Seq(1L -> planar(0.00), 2L -> planar(1.5)))
    val b = items(Seq(3L -> planar(0.02), 4L -> planar(2.8)))
    val out = Merging.twoTableMerge(a, b, cfg)
    assert(memberSets(out.filter(size(col("members")) >= 2)) == Set(Set(1L, 3L)))
    assert(out.count() == 3) // merged item + two pass-through singletons
  }

  test("merged item id is the min member eid") {
    val a = items(Seq(9L -> planar(0.0)))
    val b = items(Seq(4L -> planar(0.01)))
    val out = Merging.twoTableMerge(a, b, cfg).collect()
    assert(out.length == 1)
    assert(out(0).getLong(0) == 4L)
    assert(out(0).getSeq[Long](1) == Seq(4L, 9L))
  }

  test("merged item vector is the renormalised centroid") {
    val a = items(Seq(1L -> planar(0.0)))
    val b = items(Seq(2L -> planar(0.2)))
    val out = Merging.twoTableMerge(a, b, cfg).collect()(0)
    val vec = out.getSeq[Double](2)
    val expect = repro.embed.VecOps.meanNormalized(Seq(planar(0.0).toSeq, planar(0.2).toSeq))
    vec.zip(expect).foreach { case (x, y) => assert(math.abs(x - y) < 1e-9) }
  }

  test("twoTableMerge with no matches unions the tables untouched") {
    val a = items(Seq(1L -> planar(0.0)))
    val b = items(Seq(2L -> planar(1.5)))
    val out = Merging.twoTableMerge(a, b, cfg)
    assert(memberSets(out.filter(size(col("members")) >= 1)) == Set(Set(1L), Set(2L)))
  }

  test("unmatched entities survive to the merged table (Algorithm 3 line 9)") {
    val a = items(Seq(1L -> planar(0.0), 5L -> planar(0.9)))
    val b = items(Seq(2L -> planar(0.02)))
    val out = Merging.twoTableMerge(a, b, cfg)
    assert(memberSets(out) == Set(Set(1L, 2L), Set(5L)))
  }

  test("hierarchical over 4 tables finds cross-hierarchy matches") {
    // e1≈e2 (tables 1,2) and e3≈e4 (tables 3,4); the two merged items are
    // also near each other → second hierarchy merges all four.
    val t1 = items(Seq(1L -> planar(0.00)))
    val t2 = items(Seq(2L -> planar(0.04)))
    val t3 = items(Seq(3L -> planar(0.08)))
    val t4 = items(Seq(4L -> planar(0.12)))
    val out = Merging.hierarchical(Seq(t1, t2, t3, t4), cfg)
    assert(memberSets(out) == Set(Set(1L, 2L, 3L, 4L)))
  }

  test("hierarchical with an odd table count carries the odd table forward") {
    val t1 = items(Seq(1L -> planar(0.0)))
    val t2 = items(Seq(2L -> planar(1.5)))
    val t3 = items(Seq(3L -> planar(0.03)))
    val out = Merging.hierarchical(Seq(t1, t2, t3), cfg)
    assert(memberSets(out) == Set(Set(1L, 3L), Set(2L)))
  }

  test("hierarchical of a single table is the identity") {
    val t1 = items(Seq(1L -> planar(0.0), 2L -> planar(1.0)))
    assert(memberSets(Merging.hierarchical(Seq(t1), cfg)) == Set(Set(1L), Set(2L)))
  }

  test("transitivity merges within one hierarchy via connected components") {
    // a1 ↔ b1 and a2 ↔ b1? No — mutual top-1 allows each item one partner
    // per direction, but two left items can both be matched to one right
    // item only if both rank it first AND it ranks both within top-1 — so
    // use k=2 to allow a 3-way component.
    val a = items(Seq(1L -> planar(0.00), 2L -> planar(0.06)))
    val b = items(Seq(3L -> planar(0.03)))
    val out = Merging.twoTableMerge(a, b, cfg.copy(k = 2))
    assert(memberSets(out) == Set(Set(1L, 2L, 3L)))
  }

  /** Algorithm 2's grouped(2) schedule with one `twoTableMerge` per pair. */
  private def foldPairwise(tables: Seq[DataFrame], cfg: MergeConfig): DataFrame = {
    var cur = tables.toVector
    while (cur.size > 1)
      cur = cur.grouped(2).map {
        case Seq(x, y) => Merging.twoTableMerge(x, y, cfg).localCheckpoint()
        case Seq(x)    => x
      }.toVector
    cur.head
  }

  /** Items by id: (members, centroid, keys), compared bit for bit. */
  private def byId(df: DataFrame): Map[Long, (Seq[Long], Seq[Double], Seq[Long])] =
    df.collect().map(r => r.getLong(0) -> ((r.getSeq[Long](1), r.getSeq[Double](2), r.getSeq[Long](3)))).toMap

  test("level-at-a-time hierarchical equals folding twoTableMerge pair by pair") {
    val rnd = new scala.util.Random(3)
    val centres = IndexedSeq.fill(6)(repro.embed.VecOps.normalize(Array.fill(8)(rnd.nextGaussian())))
    def jitter(c: Array[Double]) = repro.embed.VecOps.normalize(c.map(_ + rnd.nextGaussian() * 0.08))
    val all = (0 until 5).map(t => items(centres.indices.map(i => (t * 100L + i) -> jitter(centres(i)))))
    for (n <- Seq(3, 4, 5); k <- Seq(1, 2)) {
      val c = cfg.copy(k = k, m = 0.5)
      val level = byId(Merging.hierarchical(all.take(n), c))
      assert(level.values.exists(_._1.size > 2), s"n=$n k=$k: no cross-level merge")
      assert(level == byId(foldPairwise(all.take(n), c)), s"n=$n k=$k")
    }
  }

  test("members stay sorted after multi-level merges") {
    val t1 = items(Seq(9L -> planar(0.00)))
    val t2 = items(Seq(4L -> planar(0.02)))
    val t3 = items(Seq(7L -> planar(0.04)))
    val t4 = items(Seq(1L -> planar(0.06)))
    val out = Merging.hierarchical(Seq(t1, t2, t3, t4), cfg).collect()
    val members = out.map(_.getSeq[Long](1)).find(_.size == 4).get
    assert(members == members.sorted)
    assert(out.find(_.getSeq[Long](1).size == 4).get.getLong(0) == 1L)
  }
}
