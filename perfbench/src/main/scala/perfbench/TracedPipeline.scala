package perfbench

import scala.collection.mutable
import org.apache.spark.ListenerBusDrain
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.ann.MutualTopK
import repro.core.{AttrSelection, AttributeSelection, DensityPruning, Merging, MultiEmConfig}
import repro.embed.Embedder
import repro.eval.Metrics

/** The per-layer outcome of one traced pipeline run. */
final case class TraceResult(
    metrics: Seq[(String, Metric)],
    spans: Seq[Map[String, Any]],
    tuples: Set[Seq[Long]],
    selected: Seq[String],
    pipelineSeconds: Double,
    /** eval.Metrics' F1 equals the benchmark's own on the traced tuples. */
    metricsAgree: Boolean,
    agreement: Double = Double.NaN,
)

object TraceResult {
  /** The layers whose Spark jobs are counted, by job group. */
  val layers: Seq[String] = Seq("embed", "core.select", "ann", "core.merge", "core.prune")
  val maxLevels = 5
}

/** One ANN call of the merge schedule, kept for its counters. */
private final case class AnnCall(left: DataFrame, right: DataFrame, pairs: DataFrame)

/** `MultiEm.run` re-driven from outside, one public layer call at a time, in
  * the order `MultiEm.run` makes them, with a span around each call and its
  * output materialised at the call's boundary. Counters that need extra
  * Spark work are computed after the pipeline span ends, so they add to
  * the run but not to any layer's time.
  */
final class TracedPipeline(in: Inputs, cfg: MultiEmConfig, listener: LayerListener) {

  private val sc = in.spark.sparkContext
  private val tracer = new Tracer
  private val groups = new JobGroups(sc)
  private def layer[T](name: String)(f: => T): T = groups(name)(tracer.span(name)(f))

  def run(): TraceResult = {
    ListenerBusDrain(sc)
    listener.reset()
    val attrs = in.ds.attrs
    val ann = cfg.merge.ann
    val annCalls = mutable.ArrayBuffer.empty[AnnCall]
    var feats: DataFrame = null
    var weights: DataFrame = null
    val union = in.tables.reduce(_ unionByName _)
    val selRan = cfg.useEer && attrs.size > 1

    val (tuples, merged, emb, sel) = tracer.span("pipeline") {
      val sel = layer("core.select") {
        if (selRan)
          AttributeSelection.select(union, "eid", attrs, cfg.sampleRatio, cfg.gamma, cfg.embed, cfg.seed)
        else AttrSelection(attrs.map(_ -> 1.0).toMap, attrs)
      }

      // MultiEm.representWithKeys, one call per span.
      val emb = layer("embed") {
        val ser = Embedder.serialize(union, sel.selected)
        feats = Embedder.explodeFeatures(ser, "eid", "text", cfg.embed)
        weights = tracer.span("embed.weights") {
          Embedder.featureWeights(feats, "eid", union.count()).localCheckpoint()
        }
        val vecs = tracer.span("embed.vectors") {
          Embedder.embedWithWeights(ser, "eid", "text", weights, cfg.embed).localCheckpoint()
        }
        val keys =
          if (ann.exact) vecs.select(col("eid"), array().cast("array<long>") as "keys")
          else tracer.span("embed.keys") {
            Embedder.blockingKeys(ser, "eid", "text", weights, cfg.embed, ann.topB, ann.rareDf).localCheckpoint()
          }
        vecs.join(keys, Seq("eid")).localCheckpoint()
      }

      // Merging.hierarchical's grouped(2) schedule, with the pair's ANN call
      // made on its own first so it can be timed and counted.
      val merged = layer("core.merge") {
        var cur = in.tables.map(t =>
          Merging.initItems(t.select(col("eid")).join(emb, Seq("eid"))).localCheckpoint()).toVector
        var level = 0
        while (cur.size > 1) {
          level += 1
          cur = tracer.span(s"core.merge.L$level") {
            cur.grouped(2).map {
              case Seq(x, y) =>
                val pairs = groups("ann")(tracer.span("ann") {
                  MutualTopK.mutualPairs(x.select("id", "vec", "keys"), y.select("id", "vec", "keys"),
                    cfg.merge.k, cfg.merge.m, ann).localCheckpoint()
                })
                annCalls += AnnCall(x, y, pairs)
                tracer.span("core.merge.pair")(Merging.twoTableMerge(x, y, cfg.merge).localCheckpoint())
              case Seq(x) => x
              case other  => throw new IllegalStateException(s"grouped(2) yielded ${other.size} tables")
            }.toVector
          }
        }
        cur.head
      }

      val tuples = layer("core.prune") {
        DensityPruning.prune(merged, emb, cfg.prune).localCheckpoint()
      }
      (tuples, merged, emb, sel)
    }
    ListenerBusDrain(sc)
    val spans = tracer.spans
    val pipeline = spans.find(_.name == "pipeline").get

    val evalSpan = new Tracer
    val (tupleScores, pairScores) = evalSpan.span("eval") {
      (Metrics.tupleScores(tuples, in.gt), Metrics.pairScores(tuples, in.gt))
    }

    // ---- counters, computed outside every layer span ----
    val out = mutable.ArrayBuffer.empty[(String, Metric)]
    def put(name: String, v: Double, unit: String): Unit = out += name -> Metric(v, unit)
    def secs(name: String): Double = Spans.total(spans, name)

    put("core.select.s", secs("core.select"), "s")
    put("core.select.sample_rows",
      if (selRan) union.sample(withReplacement = false, math.min(1.0, cfg.sampleRatio), cfg.seed).count().toDouble
      else 0.0, "count")
    put("core.select.embeds", if (selRan) attrs.size + 1.0 else 0.0, "count")

    put("embed.s", secs("embed"), "s")
    put("embed.weights_s", secs("embed.weights"), "s")
    put("embed.vectors_s", secs("embed.vectors"), "s")
    put("embed.keys_s", secs("embed.keys"), "s")
    put("embed.feature_rows", feats.count().toDouble, "count")
    put("embed.features", weights.count().toDouble, "count")

    val annSpans = spans.filter(_.name == "ann")
    val perCall = annCalls.toSeq.map(c => annCounts(c.left, c.right, c.pairs, ann.exact))
    val candidates = perCall.map(_._1).sum
    val mutual = perCall.map(_._4).sum
    put("ann.calls", annSpans.size.toDouble, "count")
    put("ann.s", annSpans.map(_.seconds).sum, "s")
    put("ann.call_max_s", if (annSpans.isEmpty) 0.0 else annSpans.map(_.seconds).max, "s")
    put("ann.candidates", candidates.toDouble, "count")
    put("ann.bucket_rows", perCall.map(_._2).sum.toDouble, "count")
    put("ann.max_bucket", if (perCall.isEmpty) 0.0 else perCall.map(_._3).max.toDouble, "count")
    put("ann.mutual_pairs", mutual.toDouble, "count")
    put("ann.yield", if (candidates == 0) 0.0 else mutual.toDouble / candidates, "ratio")
    put("ann.recall_vs_exact", annCalls.headOption.map(c => recallVsExact(c.left, c.right, c.pairs)).getOrElse(1.0), "ratio")

    val levelSpans = spans.filter(_.name.startsWith("core.merge.L"))
    put("core.merge.s", secs("core.merge"), "s")
    put("core.merge.levels", levelSpans.size.toDouble, "count")
    put("core.merge.merges", annCalls.size.toDouble, "count")
    for (l <- 1 to TraceResult.maxLevels) put(s"core.merge.L${l}_s", secs(s"core.merge.L$l"), "s")
    put("core.merge.self_s", Spans.mergeSelfSeconds(spans, "core.merge.pair", "ann"), "s")
    // Merged items with ≥ 2 members are the tuples pruning receives.
    val sizes = merged.filter(size(col("members")) >= 2).select(size(col("members")).cast("long") as "n")
      .agg(count(lit(1)), coalesce(sum(col("n") * col("n")), lit(0L))).collect()(0)
    put("core.merge.items_out", merged.count().toDouble, "count")
    put("core.merge.matched_items", sizes.getLong(0).toDouble, "count")
    put("core.prune.s", secs("core.prune"), "s")
    put("core.prune.tuples_in", sizes.getLong(0).toDouble, "count")
    put("core.prune.dist_rows", sizes.getLong(1).toDouble, "count")
    put("core.prune.outliers",
      DensityPruning.classify(merged, emb, cfg.prune).filter(col("kind") === "outlier").count().toDouble, "count")
    val tupleSet = tuples.select("members").collect().map(_.getSeq[Long](0).sorted.toSeq).toSet
    put("core.prune.tuples_out", tupleSet.size.toDouble, "count")

    put("eval.s", evalSpan.spans.head.seconds, "s")
    val f1 = (F1.tuple(tupleSet, in.gtTuples), F1.pair(tupleSet, in.gtTuples))
    val metricsAgree = math.abs(f1._1 - tupleScores.f1) < 1e-9 && math.abs(f1._2 - pairScores.f1) < 1e-9

    for (g <- TraceResult.layers) {
      val c = listener.counters(g)
      val span = groups.exclusiveSeconds(g)
      put(s"$g.jobs", c.jobs.toDouble, "count")
      put(s"$g.task_s", c.taskMs / 1e3, "s")
      put(s"$g.busy_frac", if (span <= 0) 0.0 else c.taskMs / 1e3 / (span * sc.defaultParallelism), "ratio")
      put(s"$g.shuffle_bytes", c.shuffleBytes.toDouble, "bytes")
      put(s"$g.gc_s", c.gcMs / 1e3, "s")
    }

    val top = spans.filter(_.parent == pipeline.id).map(_.seconds).sum
    put("trace.coverage", if (pipeline.seconds <= 0) 0.0 else top / pipeline.seconds, "ratio")

    val spanRecords = (spans :+ evalSpan.spans.head.copy(id = spans.size, parent = -1)).map(s =>
      Map("id" -> s.id, "name" -> s.name, "parent" -> s.parent,
        "start_s" -> (s.startNs - pipeline.startNs) / 1e9, "end_s" -> (s.endNs - pipeline.startNs) / 1e9,
        "self_s" -> Spans.selfSeconds(s, spans)))
    TraceResult(out.toSeq, spanRecords, tupleSet, sel.selected, pipeline.seconds, metricsAgree)
  }

  /** (candidates, bucket rows, largest bucket, mutual pairs) of one ANN call.
    * Exact mode has one bucket holding both tables.
    */
  private def annCounts(left: DataFrame, right: DataFrame, pairs: DataFrame, exact: Boolean): (Long, Long, Long, Long) = {
    val mutual = pairs.count()
    if (exact) {
      val (l, r) = (left.count(), right.count())
      (l * r, l * r, l + r, mutual)
    } else {
      val lk = left.select(col("id") as "lid", explode(col("keys")) as "key")
      val rk = right.select(col("id") as "rid", explode(col("keys")) as "key")
      val cand = lk.join(rk, Seq("key")).select("lid", "rid").distinct().count()
      val buckets = lk.groupBy("key").agg(count(lit(1)) as "nl")
        .join(rk.groupBy("key").agg(count(lit(1)) as "nr"), Seq("key"))
        .agg(coalesce(sum(col("nl") * col("nr")), lit(0L)), coalesce(max(col("nl") + col("nr")), lit(0L)))
        .collect()(0)
      (cand, buckets.getLong(0), buckets.getLong(1), mutual)
    }
  }

  /** Share of the exact mutual top-1 pairs (Eq. 1, distance ≤ m) that the
    * traced ANN call found, with the exact pairs computed by a brute-force
    * loop in this JVM, using the same distance and tie-break as `MutualTopK`.
    */
  private def recallVsExact(left: DataFrame, right: DataFrame, pairs: DataFrame): Double = {
    def load(df: DataFrame): Array[(Long, Array[Double])] =
      df.select("id", "vec").collect().map(r => r.getLong(0) -> r.getSeq[Double](1).toArray)
    val (l, r) = (load(left), load(right))
    val m = cfg.merge.m
    def dist(a: Array[Double], b: Array[Double]): Double = {
      var s = 0.0; var i = 0
      val n = math.min(a.length, b.length)
      while (i < n) { s += a(i) * b(i); i += 1 }
      math.min(2.0, math.max(0.0, 1.0 - s))
    }
    // best partner of each id among partners within m, by (distance, id)
    def best(xs: Array[(Long, Array[Double])], ys: Array[(Long, Array[Double])]): Map[Long, Long] =
      xs.flatMap { case (xid, xv) =>
        var bestId = Long.MaxValue; var bestD = Double.MaxValue
        ys.foreach { case (yid, yv) =>
          val d = dist(xv, yv)
          if (d <= m && (d < bestD || (d == bestD && yid < bestId))) { bestD = d; bestId = yid }
        }
        if (bestId == Long.MaxValue) None else Some(xid -> bestId)
      }.toMap
    val lBest = best(l, r)
    val rBest = best(r, l)
    val exact = lBest.collect { case (a, b) if rBest.get(b).contains(a) => (a, b) }.toSet
    val found = pairs.select("lid", "rid").collect().map(p => (p.getLong(0), p.getLong(1))).toSet
    if (exact.isEmpty) 1.0 else (exact intersect found).size.toDouble / exact.size
  }
}
