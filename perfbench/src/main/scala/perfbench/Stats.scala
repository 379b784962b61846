package perfbench

/** Order statistics for the benchmark's repeated measurements. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** First, second and third quartile, computed the way Python's
    * `statistics.quantiles(xs, n=4)` does by default (the "exclusive"
    * method, with its index clamp), so the figures in a result record match
    * the spreads a Python reader computes from the same samples. A single
    * sample is its own quartiles.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.nonEmpty, "quartiles of no samples")
    val d = xs.sorted.toIndexedSeq
    val n = d.size
    if (n == 1) return (d(0), d(0), d(0))
    val m = n + 1
    def q(i: Int): Double = {
      val j = math.min(math.max(i * m / 4, 1), n - 1)
      val delta = i * m - j * 4
      (d(j - 1) * (4 - delta) + d(j) * delta) / 4
    }
    (q(1), q(2), q(3))
  }

  /** Jaccard similarity of two sets; two empty sets agree fully. */
  def jaccard[A](a: Set[A], b: Set[A]): Double =
    if (a.isEmpty && b.isEmpty) 1.0 else (a intersect b).size.toDouble / (a union b).size
}

/** §IV-A tuple and pair F1, in percent, on collected tuples (sorted member
  * lists). The timed runs score with these; the traced run checks them
  * against `eval.Metrics`.
  */
object F1 {
  def tuple(pred: Set[Seq[Long]], gt: Set[Seq[Long]]): Double =
    score((pred intersect gt).size, pred.size, gt.size)

  def pair(pred: Set[Seq[Long]], gt: Set[Seq[Long]]): Double = {
    val (p, g) = (pairs(pred), pairs(gt))
    score((p intersect g).size, p.size, g.size)
  }

  private def pairs(tuples: Set[Seq[Long]]): Set[(Long, Long)] =
    tuples.flatMap(_.sorted.combinations(2).map(c => (c(0), c(1))))

  private def score(hit: Int, np: Int, ng: Int): Double = {
    val p = if (np == 0) 0.0 else 100.0 * hit / np
    val r = if (ng == 0) 0.0 else 100.0 * hit / ng
    if (p + r <= 0) 0.0 else 2 * p * r / (p + r)
  }
}

/** One timed call: `parent` is the id of the enclosing span, or -1. */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans around calls made on one thread; spans nest by call order. */
final class Tracer {
  private val done = scala.collection.mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[Int]
  private var nextId = 0

  def span[T](name: String)(f: => T): T = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try f
    finally {
      open = open.tail
      done += Span(id, name, parent, t0, System.nanoTime())
    }
  }

  def spans: Seq[Span] = done.sortBy(_.id).toSeq
}

object Spans {

  /** A span's self time: its duration minus the part of its interval that
    * its direct children cover (overlapping children are counted once).
    */
  def selfSeconds(s: Span, all: Seq[Span]): Double = {
    val kids = all.filter(_.parent == s.id)
      .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
      .filter { case (a, b) => b > a }
      .sortBy(_._1)
    var covered = 0L
    var curA = Long.MinValue
    var curB = Long.MinValue
    for ((a, b) <- kids) {
      if (a > curB) {
        if (curB > curA) covered += curB - curA
        curA = a; curB = b
      } else curB = math.max(curB, b)
    }
    if (curB > curA) covered += curB - curA
    (s.endNs - s.startNs - covered) / 1e9
  }

  /** Summed seconds of all spans with this name. */
  def total(all: Seq[Span], name: String): Double = all.filter(_.name == name).map(_.seconds).sum

  /** Σ over the merge schedule's table pairs of (pair merge − that pair's
    * ANN call). `Merging.twoTableMerge` recomputes the mutual top-K pairs
    * itself, so the ANN span is a sibling that ran just before the merge
    * span under the same parent, not a child of it.
    */
  def mergeSelfSeconds(all: Seq[Span], mergeName: String, annName: String): Double = {
    val byParent = all.groupBy(_.parent)
    byParent.values.toSeq.flatMap { sibs =>
      val ordered = sibs.sortBy(_.startNs)
      ordered.zip(ordered.drop(1)).collect {
        case (ann, merge) if ann.name == annName && merge.name == mergeName => merge.seconds - ann.seconds
      }
    }.sum
  }
}

/** Minimal JSON writer: maps, sequences, strings, numbers and booleans. */
object Json {
  def write(v: Any): String = v match {
    case null                => "null"
    case s: String           => quote(s)
    case b: Boolean          => b.toString
    case d: Double           => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int              => n.toString
    case n: Long             => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + write(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]     => xs.map(write).mkString("[", ",", "]")
    case other               => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
